import math
import re

import numpy as np
import pytest

from firstlook.output import json_dump


@pytest.mark.parametrize("value,text", [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"),
                                        (np.float64(math.nan), "nan")],
                         ids=["nan0", "inf", "-inf", "nan1"])
def test_json_dump_names_the_value_that_is_not_finite(capsys, tmp_path, value, text):
    payload = {"method": "sv-lattice", "inputs": {"spot": 20.0, "sigma": value, "rate": math.inf},
               "price": math.nan}
    out = tmp_path / "report.json"
    message = f"report value inputs.sigma = {text} is not finite"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        json_dump(payload, out)
    # refused before anything is printed or written
    assert capsys.readouterr().out == "" and not out.exists()

import math
import re

import numpy as np
import pytest

from firstlook.output import json_dump


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
def test_json_dump_names_the_value_that_is_not_finite(capsys, tmp_path, value):
    payload = {"method": "sv-lattice", "inputs": {"spot": 20.0, "sigma": value, "rate": math.inf},
               "price": math.nan}
    out = tmp_path / "report.json"
    message = f"report value inputs.sigma = {value!r} is not finite"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        json_dump(payload, out)
    # refused before anything is printed or written
    assert capsys.readouterr().out == "" and not out.exists()

"""Size caps, overridable through environment variables.

Caps are configuration, not hard limits: each is read from the environment
at every use, and the oracle and weak-order enumeration also take an
explicit ``cap=`` argument.

* ``TVCSP_ARITY_CAP``: maximum arity of a cost table (default 6; the table
  for arity 6 already has 4683 entries).
* ``TVCSP_SEARCH_CAP``: maximum number of variables the exact exponential
  backends accept.  When unset, the brute-force optimizer caps at
  ``DEFAULT_ORACLE_CAP`` variables (it enumerates the ordered Bell number
  of weak orders), the layer dynamic program at ``DEFAULT_LAYER_CAP`` (it
  takes O(3ⁿ·n) steps) and the complete crisp backend (with the min/max
  route of ``cspengine.solve_crisp``) at ``DEFAULT_CRISP_CAP``; when set,
  all three use the given value.

The improvement/preservation testers enumerate joint order types on ``2k``
or ``2k + 1`` positions and refuse relation arities ``k`` above the fixed
``DEFAULT_JOINT_ARITY_CAP``.
"""

import os

DEFAULT_ARITY_CAP = 6
DEFAULT_ORACLE_CAP = 8
DEFAULT_LAYER_CAP = 12
DEFAULT_CRISP_CAP = 10
DEFAULT_JOINT_ARITY_CAP = 4

ARITY_CAP_NAME = "TVCSP_ARITY_CAP"
SEARCH_CAP_NAME = "TVCSP_SEARCH_CAP"


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from exc


def arity_cap() -> int:
    return _env_int(ARITY_CAP_NAME, DEFAULT_ARITY_CAP)


def oracle_cap() -> int:
    return _env_int(SEARCH_CAP_NAME, DEFAULT_ORACLE_CAP)


def layer_cap() -> int:
    return _env_int(SEARCH_CAP_NAME, DEFAULT_LAYER_CAP)


def crisp_cap() -> int:
    return _env_int(SEARCH_CAP_NAME, DEFAULT_CRISP_CAP)

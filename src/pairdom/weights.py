"""Extended-weight arithmetic with an infeasible sentinel.

Weights are nonnegative 64-bit integers. An infeasible state ("the empty
set of infinite weight") is represented by the integer ``INFEASIBLE``,
chosen so that

  * every feasible value compares strictly below it,
  * saturating addition of a handful of terms cannot overflow int64.

Instance loading enforces that the total weight of a graph stays below
``MAX_TOTAL_WEIGHT``, so any sum of real set weights is far below the
sentinel.
"""

INFEASIBLE = 1 << 61
MAX_TOTAL_WEIGHT = 1 << 59

"""Pinned results, derived by running each task at commit a976d1d.

Node counts are not results: a faster search may visit fewer nodes.  They are
pinned in PINNED_NODES only so the report can say whether they still equal
those of a976d1d; a mismatch there is informational, while drift between
passes or runs of one code version fails the run.
"""

FINGERPRINTS = {
    "o6plus_q2": "f3cba4a549f48de9",
    "sp6_q2": "a3ca35c6127593ba",
    "o8minus_q2": "e6593b7eaf47089b",
    "o6plus_q3": "9dbff42cbd265fa7",
    "sp6_q3": "35c7f40b8dac6a3a",
    "o7_q3": "a5bf988fd5909aee",
    "u6_q4": "2d3e1ac8ae40baee",
}

# workloads.order_digest: point and plane bases in index order
ORDER_DIGESTS = {
    "o6plus_q2": "35364ea609f3f3cd",
    "sp6_q2": "2b438fe771e4bb8b",
    "o8minus_q2": "01d670204327541b",
    "o6plus_q3": "6cfbf65f76caa4ab",
    "sp6_q3": "61d1d1aa90d5cb2b",
    "o7_q3": "fc8b7414552f885d",
    "u6_q4": "ceca8398fbd16b16",
}

VALENCIES = {
    "o6plus_q2": [1, 12, 12, 48, 32],
    "sp6_q2": [1, 18, 24, 144, 128],
    "o8minus_q2": [1, 30, 48, 480, 512],
    "o6plus_q3": [1, 24, 36, 216, 243],
    "o7_q3": [1, 48, 108, 1296, 2187],
}

# (eigenspace, size) -> number of regular sets in O+(6,2)
REGULAR_COUNTS = {("11", 15): 28, ("11", 30): 168, ("20", 35): 0, ("10", 42): 0}
# digest of the sorted list of sets found by a complete enumeration
REGULAR_DIGESTS = {
    ("11", 15): "2e04882b948dbfaf",
    ("10", 42): "4f53cda18c2baa0c",
    ("20", 35): "4f53cda18c2baa0c",
}

# (support, size, catalog) -> acceptable statuses; a plane is a {10, 20}
# witness of size 7, so "none" there would be false
PROBE_STATUS = {
    (("10",), 21, True): ("none",),
    (("10", "20"), 7, False): ("unknown", "witness"),
    (("10", "20"), 14, True): ("witness",),
}

PACKING = {"o6plus_q2": 7, "o6plus_q3": 7}

# digest of a command's stdout; for searches, of its JSON without "nodes"
SESSION_DIGESTS = {
    "info o6plus_q2": "8f14e5c840ecc1b3",
    "info sp6_q2": "5ffd0188ff1f9c21",
    "info o8minus_q2": "b2cb14fd63eb5ee9",
    "info o6plus_q3": "823d8589f6f58e39",
    "info sp6_q3": "867ed7155989e755",
    "info o7_q3": "f6d4bb5ffde01ab7",
    "info u6_q4": "4e97a6bc17cae537",
    "eval hexagon sp6_q2": "4935e698aafef09f",
    "eval hexagon o7_q3": "cf512087ba7e0d21",
    "eval spread sp6_q2": "c6931db8f439b33b",
    "eval pencil-union o6plus_q2": "38eb552dac88eda5",
    "eval pencil-union o6plus_q3": "6f7ffb8ddaf5ba0d",
    "eval m-ovoid-lift o6plus_q3": "2f93d2c4cc6edf13",
    "eval rank3-section o8minus_q2": "3589e368aaf16acd",
    "eval gq-section o6plus_q2": "ff0a31057e319c07",
    "eval one-system sp6_q2": "cd42f3af63e955a5",
    "lp bound --q 2 --e 0 --forbid R11,R21": "4fb96ff9c0ca9dfb",
    "lp bound --q 2 --e 1 --forbid R10": "e220a4372e457ed3",
    "lp bound --q 2 --e 2 --forbid R11,R20": "f376719fbe1f75aa",
    "lp bound --q 3 --e 0 --forbid R10,R20,R21": "f7c1f7ba9f068d04",
    "lp bound --q 3 --e 1 --forbid R11,R21": "d851b8de7929753e",
    "lp bound --q 3 --e 2 --forbid R10,R11": "7a6ad5a9cfd2a491",
    "lp bound --q 4 --e 0 --forbid R11": "d4d922a444bd8d83",
    "lp bound --q 4 --e 1/2 --forbid R10,R21": "5e7fb9d731b8db35",
    "lp bound --q 4 --e 1 --forbid R20": "1d885405318f762b",
    "lp bound --q 4 --e 3/2 --forbid R11,R21": "d26ec27b94b77341",
    "lp bound --q 4 --e 2 --forbid R10,R20,R21": "fa86c1b04f070949",
    "lp bound --q 5 --e 0 --forbid R11,R20": "3bd2d4ad44062002",
    "lp bound --q 5 --e 1 --forbid R10,R21": "9c10d6fddd5b8f0e",
    "lp bound --q 5 --e 2 --forbid R11": "0a23865abe1ea05a",
    "scheme tables --q 2 --e 0": "64b4bff3681beb78",
    "scheme tables --q 3 --e 1": "55a83116b00bfce5",
    "scheme tables --q 4 --e 1/2": "60cd9f193082d33b",
    "scheme tables --q 2 --e 2": "d3a9c78c85ae7832",
    "search regular --space o6plus_q2 --j 11 --size 15": "d5839215fd82e763",
    "search probe --space o6plus_q2 --support 10 --size 21 --no-prefilter": "e4ca8263bc9ae7a0",
    "search spread --space sp6_q2": "a4a045ae6aacdcdb",
    "search packing --space o6plus_q2": "672a0ecf98119fc5",
    "search movoid --space sp6_q2 --m 1": "2f442605e0fff824",
}

PINNED_NODES = {
    "movoid o7_q3 m=2": 10672,
    "packing o6plus_q2": 8,
    "packing o6plus_q3": 156992,
    "probe 10,20/14": 0,
    "probe 10,20/7 budget 15000 no-catalog": 15001,
    "probe 10/21": 31,
    "regular V10/42": 1745,
    "regular V11/15": 67,
    "regular V11/30 budget 5000": 5001,
    "regular V20/35": 167,
    "search movoid --space sp6_q2 --m 1": 11,
    "search packing --space o6plus_q2": 8,
    "search probe --space o6plus_q2 --support 10 --size 21 --no-prefilter": 31,
    "search regular --space o6plus_q2 --j 11 --size 15": 67,
    "search spread --space sp6_q2": 22,
    "spread sp6_q2": 22,
    "spread sp6_q2 one-system": 10,
}

"""Bad partitions and maps, each with the one message the library and the CLI give.

Each entry of PARTITIONS and MAPS is (case, the object the constructor
takes, the text the parser takes, the message).  Each entry of
SIZE_MISMATCHES is (case, map text, partition text, the message every
predicate on the pair raises): both are valid alone, on different points.
"""

PARTITIONS = [
    ("empty block", ((0, 1), (), (2,)), "0,1||2", "empty block"),
    ("blank text", ((),), "", "empty block"),
    ("negative point", ((0, 1), (-1,)), "0,1|-1", "point -1 out of range for n=2"),
    ("gap", ((0,), (2,)), "0|2", "missing point 1"),
    ("duplicate", ((0, 1), (1, 2)), "0,1|1,2", "duplicate point 1"),
    ("duplicate in a block", ((0, 0), (1,)), "0,0|1", "duplicate point 0"),
    ("too large", ((0, 1), (2, 9)), "0,1|2,9", "missing point 3"),
    ("far too large", ((0,), (10**12,)), "0|1000000000000", "missing point 1"),
    ("all negative", ((-1,),), "-1", "point -1 out of range for n=0"),
]
MAPS = [
    ("empty", (), "", "transformation needs a nonempty ground set"),
    ("negative image", (0, -1), "0,-1", "image -1 out of range for n=2"),
    ("too large", (0, 3, 1), "0,3,1", "image 3 out of range for n=3"),
    ("one image short", (1, 2), "1,2", "image 2 out of range for n=2"),
]
SIZE_MISMATCHES = [
    ("partition larger", "0,1,2", "0,1|2,3", "ground sets differ: map on 3 points, partition of 4"),
    ("partition smaller", "0,1,2", "0,1", "ground sets differ: map on 3 points, partition of 2"),
]

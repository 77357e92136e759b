"""Pinned CLI outputs: each row runs `ringroots` in process on a fixed document and checks its
exit code, the sha256 of its stdout and, for a census, the summary counts on stderr.  A
deliberate output change is re-recorded by editing its row, with the reason in CHANGES.md."""

import hashlib
import json

import pytest

from helpers import run_cli


def _printed(source: str) -> str:
    """The line, newline included, that the document generator `source` prints."""
    lines = []
    exec(source, {"print": lines.append})
    return lines[0] + "\n"


CENSUS = '{"ring": {"kind": "matrix", "k": 2, "field": {"kind": "prime", "p": %d}}, "n": %d}'
DOCS = {  # name: stdin
    "census-m2f3-n2": CENSUS % (3, 2),
    "census-m2f2-n3": CENSUS % (2, 3),
    "census-m2f2-n4": CENSUS % (2, 4),
    "quaternion-40": _printed('import json, random; r = random.Random(5); '
        'print(json.dumps({"ring": {"kind": "quaternion"}, "elements": [[f"{r.randint(-3, '
        '3)}/{r.choice((1, 2))}" for _ in range(4)] for _ in range(40)]}))'),
    "repeated-64": _printed('import json, random; r = random.Random(5); e = [[f"{r.randint(-3, '
        '3)}/{r.choice((1, 2))}" for _ in range(4)] for _ in range(32)]; print(json.dumps({"ring": '
        '{"kind": "quaternion"}, "elements": e + e}))'),
    "fold-matq": _printed('import json, random; r = random.Random(19); e = [[[f"{r.randint(-9, '
        '9)}/{r.randint(1, 4)}" for _ in range(2)] for _ in range(2)] for _ in range(5)]; '
        'print(json.dumps({"ring": {"kind": "matrix", "k": 2, "field": {"kind": "rational"}}, '
        '"elements": e + e[:2]}))'),
    "fold-matf2": _printed('import json, random; r = random.Random(1); e = [[[r.randrange(2) for _ '
        'in range(2)] for _ in range(2)] for _ in range(5)]; print(json.dumps({"ring": {"kind": '
        '"matrix", "k": 2, "field": {"kind": "prime", "p": 2}}, "elements": e}))'),
    "fold-field": _printed('import json, random; r = random.Random(23); e = [f"{r.randint(-9, '
        '9)}/{r.randint(1, 4)}" for _ in range(6)]; print(json.dumps({"ring": {"kind": "field", '
        '"field": {"kind": "rational"}}, "elements": e + e[:2]}))'),
    "criterion": _printed('import json, random; from fractions import Fraction; r = '
        'random.Random(11); q = lambda: Fraction(r.randint(-10**40, 10**40), r.randint(1, '
        '10**40)); x1 = [[q() for _ in range(3)] for _ in range(3)]; u = [q() for _ in range(3)]; '
        'v = [q() for _ in range(3)]; x2 = [[x1[i][j] + u[i] * v[j] for j in range(3)] for i in '
        'range(3)]; s = lambda m: [[str(e) for e in row] for row in m]; print(json.dumps({"ring": '
        '{"kind": "matrix", "k": 3, "field": {"kind": "rational"}}, "elements": [s(x1), s(x2)]}))'),
    "criterion-fp": _printed('import json, random; p = 3317044064679887385961813; r = '
        'random.Random(13); x1, x2 = ([[r.randrange(p) for _ in range(3)] for _ in range(3)] for _ '
        'in range(2)); print(json.dumps({"ring": {"kind": "matrix", "k": 3, "field": {"kind": '
        '"prime", "p": p}}, "elements": [x1, x2]}))'),
    "verify-40-digit": _printed('import json, random; r = random.Random(17); q = lambda: '
        'f"{r.randint(-10**40, 10**40)}/{r.randint(1, 10**40)}"; c = [[q() for _ in range(4)] for '
        '_ in range(13)]; e = [[q() for _ in range(4)] for _ in range(3)] + [[q(), "0", "0", "0"], '
        '["0", q(), q(), q()], ["0", "0", "0", "0"]]; print(json.dumps({"polynomial": {"ring": '
        '{"kind": "quaternion"}, "coefficients": c}, "elements": e}))'),
}

# (document, argv, exit code, stdout sha256[, census pairs, exists count, disagreements])
PINS = [
    ("census-m2f3-n2", "cross-check", 0, "cd66c495fa59dbdbc286d41dce9373a09ed160efc6198fa44608c4329c07d7a2",
     6480, 4752, 0),
    ("census-m2f2-n3", "cross-check", 0, "7045240d5309d553a45aa63d63c1e158c90882bad377149a186425a1b1ccaa73",
     240, 240, 0),
    ("census-m2f2-n4", "cross-check", 0, "731aa5132771bdd2355b9b7ad5a42524494e6e6ed81c6ac60429063ef8a276f2",
     240, 240, 0),
    ("quaternion-40", "construct --trace --exact-degree", 0, "a3d19b58e4b3c347c911af110b0a0fadca6557ac342a67379e5fbfcfa63f5664"),
    ("repeated-64", "construct --trace", 0, "50878032f1c476ed91f8cae3d45764c55a27d7227944efa2e5e9d27076748fa1"),
    ("repeated-64", "construct --trace --exact-degree", 0, "8c4be0afdce1bb2ff0bd6d48628851facec08fd4e886b95026456cff0f172c2f"),
    ("fold-matq", "construct --trace", 0, "c2117902836c469b8bcf0a24bac9db55aa860dfb7a8124261e6df1e9d01f0bc7"),
    ("fold-matq", "construct --trace --exact-degree", 0, "98aa336986dcef2ac888c40cc8572a040de201b0cc5c5db283ab7e09114de851"),
    ("fold-matf2", "construct --trace", 2, "2d8227b63767578ee35e4d08a1a4c9ebdc413a95d378a60b82d52744dfe243bb"),
    ("fold-matf2", "construct --trace --exact-degree", 2, "f37796fae2040fb56e15540ad26d1f3608de150407668c14921791a7f8f1f732"),
    ("fold-field", "construct --trace", 0, "2de8106a342dc8a88a0604c20dff5af85631edb1f72ec83327d374f558a6ca8b"),
    ("fold-field", "construct --trace --exact-degree", 0, "d392d4d460077d5421c26349a04ef0f29c9509b10c2d6687eacd0ef7f524f026"),
    ("criterion", "quadratic", 3, "3d741129af7f61aaafdf9445340d74e6e4e3424d16ccb4cb0c73b2e8aeeaae3a"),
    ("criterion", "degree-n --n 3", 3, "7b877e4d0f1e8349b3aa3d6687f8a388482962a93db468b7ead3600df71109aa"),
    ("criterion", "degree-n --n 4", 0, "c53001dce1ab0859acb886e39de848a7772479fa08c1701599a2ade137b40494"),
    ("criterion", "degree-n --n 8", 0, "30380bec34b8f2b498a28cb1ed4f05d94d1cdf3cc096268d4da67b38164327c4"),
    ("criterion-fp", "quadratic", 0, "105888b7066465811168dae872b801c627548b4aeb0cc751516c4fea51970341"),
    ("criterion-fp", "degree-n --n 3", 0, "b97ad183c9261e3cfb2549732695b8e108bca682c6396084d3663b866329ef49"),
    ("criterion-fp", "degree-n --n 5", 0, "a0cf77abf58e41869dd4fd8440bac6156b624f6e2e1028801db800948d8c20f0"),
    ("verify-40-digit", "verify", 1, "14602e643db8e2bceca48f207ee2808ad1d51879ab58bb8025034e4052f127e4"),
]


@pytest.mark.parametrize("row", PINS, ids=[f"{row[0]} {row[1]}" for row in PINS])
def test_pinned_output(monkeypatch, capsys, row):
    document, argv, code, sha256, *census = row
    got, out, err = run_cli(monkeypatch, capsys, argv.split(), text=DOCS[document])
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, sha256)
    if census:
        summary = json.loads(err)
        assert [summary["pairs_checked"], summary["exists_count"], summary["disagreements"]] == census

"""Extreme requests leave clean streams.

A fixed corpus of about a hundred argvs, every subcommand and kind at
couplings of 1e-300, 1e300 and the largest float, must each exit 0, 2 or 3
with only `effosc:` lines on stderr, no LAPACK complaint (`** On entry to
...`) on stdout, and strict JSON on stdout.  LAPACK writes to file
descriptor 1 below Python's `sys.stdout`, where `capsys` cannot see it, so
one child interpreter runs the whole corpus and captures descriptors 1 and
2 around each request.
"""
import json
import subprocess
import sys

LARGEST = "1.7976931348623157e308"
KINDS = {"quartic-aho": "", "quartic-dwo": "-", "sextic-aho": "", "sextic-dwo": "-", "octic-aho": ""}
# (g, lambda) pairs; g None keeps the kind's default, and g takes the kind's sign
COUPLINGS = [(None, "1e300"), (None, LARGEST), (None, "1e-300"),
             ("1e300", "1"), (LARGEST, "1"), ("1e-300", "1e-300")]


def corpus():
    argvs = []
    for sub in ("spectrum", "ipt", "oracle"):
        for kind, sign in KINDS.items():
            for i, (g, lam) in enumerate(COUPLINGS):
                argv = [sub, "--kind", kind, "--lambda", lam, "--levels", "0..1" if i % 2 else "0"]
                argvs.append(argv if g is None else argv + ["--g=" + sign + g])
    for lam in ("1e-300", "1e300", LARGEST, "-1e300"):
        argvs += [["vacuum", "--lambda", lam], ["effective-potential", "--lambda", lam]]
    for b in ("1e-300", "1e300", "2.3e307", LARGEST, "-1e300"):
        argvs += [["susy", check, "--b", b, "--levels", "0..1"] for check in ("ispp", "scaling")]
        argvs.append(["susy", "wavefunction", "--b", b, "--grid=-2:2:0.5"])
    # the oracle's two-state parity blocks, rescaled by LAPACK at a huge band norm
    argvs += [["oracle", "--kind", "quartic-aho", "--g=" + g, "--lambda", "1", "--levels", "0"]
              for g in ("1e300", "1e308")]
    argvs.append(["spectrum", "--kind", "quartic-aho", "--lambda", "1e300", "--format", "csv"])
    return argvs


CHILD = r"""
import ctypes, json, os, sys, tempfile, warnings
from effosc.cli import run

warnings.simplefilter("always")  # every warning shows, not only a location's first
libc = ctypes.CDLL(None)
libc.fflush.argtypes, libc.fflush.restype = [ctypes.c_void_p], ctypes.c_int  # fflush(NULL): every C stream
results = []
for argv in json.load(sys.stdin):
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        sys.stdout.flush(); sys.stderr.flush(); libc.fflush(None)
        saved = os.dup(1), os.dup(2)
        os.dup2(out.fileno(), 1)
        os.dup2(err.fileno(), 2)
        try:
            code = run(argv)
        except Exception as exc:  # an escaping exception is reported, not raised
            code = repr(exc)
        sys.stdout.flush(); sys.stderr.flush(); libc.fflush(None)
        os.dup2(saved[0], 1)
        os.dup2(saved[1], 2)
        os.close(saved[0])
        os.close(saved[1])
        out.seek(0)
        err.seek(0)
        results.append([argv, code, out.read().decode(), err.read().decode()])
print(json.dumps(results))
"""


def _refuse(constant):
    raise ValueError("non-standard JSON constant %s" % constant)


def test_extreme_requests_leave_clean_streams():
    argvs = corpus()
    proc = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(argvs),
                          capture_output=True, text=True, check=True)
    results = json.loads(proc.stdout)
    assert len(results) == len(argvs) >= 100
    for argv, code, out, err in results:
        assert code in (0, 2, 3), (argv, code, err)
        assert all(line.startswith("effosc: ") for line in err.splitlines()), (argv, err)
        assert code == 0 or not out, (argv, out)
        assert not any(line.lstrip().startswith("**") for line in out.splitlines()), (argv, out)
        if out and "--format" not in argv:
            json.loads(out, parse_constant=_refuse)
    # the corpus reaches all three outcomes
    assert {code for _, code, _, _ in results} == {0, 2, 3}

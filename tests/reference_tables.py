"""Published reference-table values, exactly as printed, at quoted precision.

Values are kept as strings so each cell carries its own precision; the
tolerance helpers below derive per-cell tolerances from the printed text.
Table ids match the CLI's `table --id N` naming.

Grids:
  T1_LO / T1_EXACT : quartic single well, g = 1; leading-order and
                     diagonalization columns, keyed [lambda][n].
  T2_LO            : quartic double well, g = -1, well-bottom referenced.
  T2_REF           : the reference column printed next to T2_LO (same
                     keys).  It does not match this Hamiltonian's spectrum
                     under the T2_LO convention: the diagonalization oracle
                     and an independent finite-difference solve agree with
                     each other to 1e-6 relative, and both differ from the
                     column by up to 10% relative (lambda=0.1, n=2: 1.63519
                     vs the printed 1.4664, off by 0.169) and up to 1.70
                     absolute (lambda=100, n=10: 146.674 vs 144.97).  No
                     test reads it; it is kept as printed for the record.
  T3_LO            : sextic single well quoted in the doubled convention
                     with table coupling = 2x ours (E_table = 2 E(lam/2)).
  T5_LO            : octic single well, doubled energies at equal coupling
                     (E_table = 2 E(lam)).
  T4_AHO / T4_DWO  : sextic partner pair at b = 1, doubled energies; the
                     DWO column lists levels 1..20 against rows 0..19.

qes_levels(a, J, parity) gives the exact levels of the quasi-exactly-solvable
sextic double wells, computed from their closed-form tridiagonal matrix.

T1_LO_DEVIANT / T2_LO_DEVIANT name the leading-order cells whose printed
value is off, with the recomputed value pinned at full precision.
"""

T1_LO = {
    0.1: {0: "0.5603", 1: "1.7734", 2: "3.1382", 4: "6.2052", 10: "17.266", 40: "94.843"},
    1.0: {0: "0.8125", 1: "2.7599", 2: "5.1724", 4: "10.900", 10: "32.663", 40: "192.79"},
    10.0: {0: "1.5313", 1: "5.3821", 2: "10.324", 4: "22.248", 10: "68.171", 40: "409.89"},
    100.0: {0: "3.1924", 1: "11.325", 2: "21.853", 4: "47.349", 10: "145.84", 40: "880.55"},
}

T1_EXACT = {
    0.1: {0: "0.5591", 1: "1.7695", 2: "3.1386", 4: "6.2203", 10: "17.352", 40: "90.562"},
    1.0: {0: "0.8038", 1: "2.7379", 2: "5.1792", 4: "10.964", 10: "32.933", 40: "194.60"},
    10.0: {0: "1.5050", 1: "5.3216", 2: "10.347", 4: "22.409", 10: "68.804", 40: "413.94"},
    100.0: {0: "3.1314", 1: "11.187", 2: "21.907", 4: "47.707", 10: "147.23", 40: "889.32"},
}

# (lambda = 0.1, n = 40): the printed 90.562 lies BELOW the printed LO
# 94.843 with ~6% error while every neighbouring cell agrees to <5e-4 at
# scale; treated as a suspected misprint and excluded from the exact-column
# comparison.  The recomputed value is reported alongside it.
T1_EXACT_SUSPECT = (0.1, 40)

# Leading-order cells whose printed value disagrees with the computed one by
# more than one unit in the last printed digit, mapped to the full-precision
# recomputation.  All lie on the undisplaced branch, and each equals the
# minimum over w of the averaged Hamiltonian to machine precision, so the
# printed cell is off, not the solver.  The printed strings above stay as
# published.
T1_LO_DEVIANT = {
    (0.1, 40): 94.84034503720767,    # printed 94.843
}

T2_LO_DEVIANT = {  # well-bottom referenced, like T2_LO
    (1.0, 2): 4.233389008284737,     # printed 4.2324
    (1.0, 10): 30.088776545373214,   # printed 30.530
    (10.0, 1): 5.065191843033487,    # printed 5.0650
    (10.0, 2): 9.866224528199297,    # printed 9.8660
    (10.0, 10): 66.95326997645907,   # printed 66.950
    (100.0, 0): 3.1337870554591922,  # printed 3.1340
    (100.0, 4): 47.02826058161132,   # printed 47.023
}

T2_LO = {
    0.1: {0: "0.5496", 1: "0.8430", 2: "1.5636", 4: "3.5805", 10: "12.192"},
    1.0: {0: "0.5989", 1: "2.1250", 2: "4.2324", 4: "9.4680", 10: "30.530"},
    10.0: {0: "1.4098", 1: "5.0650", 2: "9.8660", 4: "21.561", 10: "66.950"},
    100.0: {0: "3.1340", 1: "11.175", 2: "21.638", 4: "47.023", 10: "145.27"},
}

T2_REF = {
    0.1: {0: "0.4702", 1: "0.7258", 2: "1.4664", 4: "3.5522", 10: "12.188"},
    1.0: {0: "0.5857", 1: "2.0937", 2: "4.1842", 4: "9.4182", 10: "30.481"},
    10.0: {0: "1.3924", 1: "5.0118", 2: "9.7868", 4: "21.478", 10: "66.860"},
    100.0: {0: "3.1038", 1: "11.066", 2: "21.454", 4: "46.747", 10: "144.97"},
}

T3_LO = {
    0.2: {0: "1.193", 1: "3.966", 2: "7.240", 4: "16.15", 6: "26.88", 10: "53.24", 14: "85.01", 17: "111.92"},
    2.0: {0: "1.676", 1: "5.931", 2: "11.61", 4: "26.48", 6: "45.08", 10: "91.17", 14: "147.0", 17: "194.4"},
    10.0: {0: "2.323", 1: "8.420", 2: "16.74", 4: "38.73", 6: "66.36", 10: "135.0", 14: "218.3", 17: "289.0"},
    100.0: {0: "3.947", 1: "14.52", 2: "29.16", 4: "68.01", 6: "117.0", 10: "238.7", 14: "386.6", 17: "512.1"},
    400.0: {0: "5.521", 1: "20.39", 2: "41.03", 4: "95.90", 6: "165.1", 10: "337.1", 14: "546.2", 17: "723.7"},
    2000.0: {0: "8.206", 1: "30.37", 2: "61.18", 4: "143.2", 6: "246.5", 10: "503.8", 14: "816.3", 17: "1082.0"},
}

T5_LO = {
    0.1: {0: "1.3005", 1: "4.4717", 2: "8.6264", 4: "19.763", 6: "34.217", 8: "51.570",
          9: "61.239", 10: "71.532", 11: "82.424", 12: "93.893", 13: "105.92", 14: "118.49"},
    1.0: {0: "1.7794", 1: "6.3946", 2: "12.717", 4: "30.026", 6: "52.669", 8: "80.013",
          9: "95.255", 10: "111.49", 11: "128.68", 12: "146.79", 13: "165.79", 14: "185.65"},
    5.0: {0: "2.3290", 1: "8.5167", 2: "17.126", 4: "40.863", 6: "72.044", 8: "109.65",
          9: "130.64", 10: "153.01", 11: "176.69", 12: "201.65", 13: "227.84", 14: "255.21"},
    50.0: {0: "3.5565", 1: "13.1724", 2: "26.698", 4: "64.165", 6: "113.48", 8: "172.99",
           9: "206.23", 10: "242.64", 11: "279.14", 12: "318.67", 13: "360.14", 14: "403.50"},
    200.0: {0: "4.6425", 1: "17.259", 2: "35.062", 4: "84.444", 6: "149.47", 8: "227.97",
            9: "271.81", 10: "318.52", 11: "368.06", 12: "420.14", 13: "474.85", 14: "532.06"},
}

T4_AHO = ["1.95608", "6.37732", "11.7352", "17.9931", "25.0597", "32.8581", "41.3276",
          "50.4197", "60.0950", "70.3204", "81.0680", "92.3136", "104.036", "116.217",
          "128.839", "141.889", "155.351", "169.214", "183.467", "198.099"]

T4_DWO = ["2.38721", "6.24897", "11.3668", "17.4785", "24.4375", "32.1484", "40.5427",
          "49.5679", "59.1822", "69.3513", "80.0462", "91.2421", "102.917", "115.053",
          "127.632", "140.640", "154.062", "167.887", "182.102", "196.698"]


def printed_tol(printed: str) -> float:
    """Tolerance of +-1 unit in the last printed digit."""
    s = printed.strip()
    if "e" in s or "E" in s:
        raise ValueError("scientific notation not expected in reference cells")
    if "." in s:
        return 10.0 ** -(len(s) - s.index(".") - 1)
    return 1.0


def printed_scale_tol(printed: str, eps: float = 5e-4) -> float:
    """Absolute tolerance eps * 10^ceil(log10 |value|) — eps at printed scale."""
    import math

    v = abs(float(printed))
    if v == 0.0:
        return eps
    return eps * 10.0 ** math.ceil(math.log10(v))


def qes_levels(a: float, J: int, parity: int) -> list:
    """Exact levels n = 2j + parity, j = 0..J, of the quasi-exactly-solvable
    sextic double well lam = a²/2, g = -(4J + 3 + 2 parity) a, ascending.

    Their states are x^parity P(x²) exp(-a x⁴/4) with P of degree J, and
    the energies are half the eigenvalues of a (J+1)-state tridiagonal
    matrix with a zero diagonal and off-diagonals
    sqrt((2m+2+p)(2m+1+p) 4a(J-m)), m = 0..J-1 (A. V. Turbiner, Commun.
    Math. Phys. 118, 467 (1988)).
    """
    import numpy as np

    m = np.arange(J, dtype=float)
    off = np.sqrt((2.0 * m + 2.0 + parity) * (2.0 * m + 1.0 + parity) * 4.0 * a * (J - m))
    return (0.5 * np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))).tolist()

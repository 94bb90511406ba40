"""Correctness gate for `barbellw3 verify all --format json` reports.

The gate never imports barbellw3: every expected value is computed here
from the run's bounds, so a change to the program cannot also change
what the gate expects.  `gate` returns one problem string per failed
condition, each prefixed by its kind (`exit`, `bytes`, `json`,
`overall`, `status`, `suites`, `parameters`, `names`, `count`);
`negative_control` plants one defect of each kind into a genuine report
and returns the defects the gate failed to flag.
"""

from __future__ import annotations

import json

SUITES = ("psi-targets", "hexagon-vanishing", "span-vanishing", "main-theorem")
KINDS = (1, 3, 4, 6)


def bounded_word_count(max_syllables: int, max_exponent: int) -> int:
    """Reduced two-letter words within the bounds, identity included.

    A word with n >= 1 syllables picks its first letter (2 ways), the
    letters then alternate, and each exponent is one of 2 * max_exponent
    nonzero values.
    """
    return 1 + sum(2 * (2 * max_exponent) ** n for n in range(1, max_syllables + 1))


def admissible_pair_count(max_syllables: int, max_exponent: int) -> int:
    """Pairs (a, c) of nontrivial words where a's last letter differs from c's first.

    Nontrivial words ending in a given letter number sum((2e)^n); the
    pair picks that letter (2 ways), then c starts with the other one.
    """
    ending = sum((2 * max_exponent) ** n for n in range(1, max_syllables + 1))
    return 2 * ending * ending


def expected_checks(kmax: int) -> dict[str, set[str]]:
    """Check names of each `verify all` suite at the given kmax."""
    ks = range(1, kmax + 1)
    cases = {f"hexagon_cases_k{k}" for k in ks}
    tables = {f"solution_table_k{k}" for k in ks}
    return {
        "psi-targets": {f"psi_target_{d}_k{k}" for d in ("d1", "d2") for k in ks},
        "hexagon-vanishing": {"hexagon_exhaustive", "hexagon_random"} | cases,
        "span-vanishing": {"span_generators"} | tables,
        "main-theorem": {"target_expansions_agree", "hexagon_exhaustive",
                         "span_generators", "rank_d1", "rank_d2"}
        | cases
        | tables
        | {f"{kind}_{d}_k{k}" for kind in ("target_psi", "certificate")
           for d in ("d1", "d2") for k in ks},
    }


def expected_parameters(p: dict) -> dict[str, dict]:
    bounds = {"kmax": p["kmax"], "max_syllables": p["max_syllables"],
              "max_exponent": p["max_exponent"]}
    return {
        "psi-targets": {"kmax": p["kmax"]},
        "hexagon-vanishing": {**bounds, "random_trials": p["trials"], "seed": p["seed"]},
        "span-vanishing": bounds,
        "main-theorem": bounds,
    }


def expected_details_prefixes(p: dict) -> dict[str, str]:
    """What the counted checks must report, computed from the bounds alone."""
    pairs = bounded_word_count(p["max_syllables"], p["max_exponent"]) ** 2
    admissible = admissible_pair_count(p["max_syllables"], p["max_exponent"])
    return {
        "hexagon_exhaustive": f"{pairs} pairs (identity included) ",
        "hexagon_random": f"{p['trials']} seeded random pairs ",
        "span_generators": f"{admissible} admissible pairs, "
        f"{len(KINDS) * admissible} generators ",
    }


def gate(returncode: int, data: bytes, reference: bytes, p: dict) -> list[str]:
    """Problems with one run's report; an empty list means the run passed.

    `reference` is the report of the same parameters at another worker
    count (or an earlier repetition): reports must not depend on either.
    `p` holds kmax, max_syllables, max_exponent, trials and seed.
    """
    problems = []
    if returncode != 0:
        problems.append(f"exit: code {returncode}")
    if data != reference:
        problems.append("bytes: report differs from the reference run")
    try:
        document = json.loads(data)
    except ValueError as error:
        return problems + [f"json: {error}"]
    if document.get("overall") != "pass":
        problems.append(f"overall: {document.get('overall')!r}")
    suites = document.get("suites", [])
    names = [suite.get("suite") for suite in suites]
    if tuple(names) != SUITES:
        return problems + [f"suites: {names}"]
    parameters = expected_parameters(p)
    checks = expected_checks(p["kmax"])
    prefixes = expected_details_prefixes(p)
    for suite in suites:
        name = suite["suite"]
        if suite.get("parameters") != parameters[name]:
            problems.append(f"parameters: {name} ran at {suite.get('parameters')}")
        found = {check["name"] for check in suite["checks"]}
        if found != checks[name]:
            missing = sorted(checks[name] - found)[:3]
            extra = sorted(found - checks[name])[:3]
            problems.append(f"names: {name} misses {missing}, adds {extra}")
        for check in suite["checks"]:
            if check["status"] != "pass":
                problems.append(f"status: {name}/{check['name']} is {check['status']}")
            prefix = prefixes.get(check["name"])
            if prefix is not None and not check["details"].startswith(prefix):
                problems.append(
                    f"count: {name}/{check['name']} reports {check['details']!r}, "
                    f"expected it to start with {prefix!r}"
                )
    return problems


def _serialize(document: dict) -> bytes:
    # The CLI's canonical form: sorted keys, indent 2, trailing newline.
    return (json.dumps(document, indent=2, sort_keys=True) + "\n").encode()


def _checks_of(document: dict, suite: str) -> list[dict]:
    return next(s for s in document["suites"] if s["suite"] == suite)["checks"]


def _one_pair_fewer(document: dict, p: dict) -> None:
    check = next(c for c in _checks_of(document, "hexagon-vanishing")
                 if c["name"] == "hexagon_exhaustive")
    pairs = bounded_word_count(p["max_syllables"], p["max_exponent"]) ** 2
    check["details"] = check["details"].replace(f"{pairs} pairs", f"{pairs - 1} pairs", 1)


def _failed_check(document: dict, p: dict) -> None:
    # overall is left at "pass": the per-check status must catch it alone.
    _checks_of(document, "main-theorem")[-1]["status"] = "fail"


def _missing_certificate(document: dict, p: dict) -> None:
    checks = _checks_of(document, "main-theorem")
    checks.remove(next(c for c in checks if c["name"].startswith("certificate_")))


def _other_bytes(data: bytes) -> bytes:
    # Same content, other bytes: what a worker-dependent serialization gives.
    return json.dumps(json.loads(data), indent=1).encode()


def _kinds(problems: list[str]) -> set[str]:
    return {problem.split(":", 1)[0] for problem in problems}


PLANTED = ("count", "status", "names", "bytes", "exit")


def negative_control(data: bytes, p: dict) -> list[str]:
    """Plant each defect of PLANTED into a genuine report; return those not flagged."""
    flagged = {}
    for kind, plant in (("count", _one_pair_fewer), ("status", _failed_check),
                        ("names", _missing_certificate)):
        document = json.loads(data)
        plant(document, p)
        planted = _serialize(document)
        flagged[kind] = kind in _kinds(gate(0, planted, planted, p))
    flagged["bytes"] = "bytes" in _kinds(gate(0, _other_bytes(data), data, p))
    flagged["exit"] = "exit" in _kinds(gate(1, data, data, p))
    return [kind for kind in PLANTED if not flagged[kind]]

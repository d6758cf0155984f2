"""Answer checks that do not use the program under test.

Each check takes a job's parsed output and returns a list of problems; an
empty list means the answer is right.  The expected values come from the
literature, not from `quivercover`:

* Gabriel's theorem: the indecomposables of a Dynkin quiver correspond to
  its positive roots, each once.  The roots are enumerated here by
  reflection closure from the simple roots.
* A self-injective Nakayama algebra with m vertices and Loewy length l has
  m*l indecomposables.
* Adachi-Iyama-Reiten: a local algebra has exactly two support tau-tilting
  modules, so k[x]/(x^2) has two support tilting pairs.
"""

from __future__ import annotations

CLAIMS = (
    "Main1", "Main2", "DILemma", "Corres", "PnPushdown", "BonGab",
    "SelfinjCriteria", "ZGpEquivalence", "ModPushdown", "TiltingPushdown",
    "TiltingFinite",
)

ROOT_COUNTS = {"E6": 36, "E7": 63, "E8": 120, "D8": 56}

# (vertices m, Loewy length l) of the self-injective Nakayama algebras:
# n32 is the 3-cycle with rad^2 = 0, loop2 is k[x]/(x^2).
NAKAYAMA = {"n32": (3, 2), "loop2": (1, 2)}

# Support tilting pairs of the local algebras among the suite inputs.
LOCAL_PAIRS = {"loop2": 2}


def positive_roots(edges, n: int) -> set[tuple[int, ...]]:
    """Positive roots of a simply-laced diagram on vertices 1..n, as the
    closure of the simple roots under the simple reflections
    s_i(a) = a - (2 a_i - sum of a_j over neighbours j of i) e_i."""
    nbrs = {v: [] for v in range(1, n + 1)}
    for a, b in edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    simple = [tuple(int(j == i) for j in range(1, n + 1)) for i in range(1, n + 1)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        alpha = frontier.pop()
        for i in range(1, n + 1):
            pairing = 2 * alpha[i - 1] - sum(alpha[j - 1] for j in nbrs[i])
            beta = list(alpha)
            beta[i - 1] -= pairing
            beta = tuple(beta)
            if min(beta) >= 0 and any(beta) and beta not in roots:
                roots.add(beta)
                frontier.append(beta)
    return roots


def check_listing(listing, edges, n: int, diagram: str) -> list[str]:
    """An `indecs` listing of a Dynkin quiver: its dimension vectors are the
    positive roots, each exactly once."""
    roots = positive_roots(edges, n)
    problems = []
    if len(roots) != ROOT_COUNTS[diagram]:
        problems.append(f"{diagram}: {len(roots)} positive roots, expected {ROOT_COUNTS[diagram]}")
    if not isinstance(listing, list):
        return problems + [f"{diagram}: listing is not a list"]
    vectors = []
    for doc in listing:
        dims = doc.get("dims", {}) if isinstance(doc, dict) else {}
        vectors.append(tuple(dims.get(str(v), 0) for v in range(1, n + 1)))
    if len(vectors) != len(roots):
        problems.append(f"{diagram}: {len(vectors)} classes listed, {len(roots)} roots")
    if len(set(vectors)) != len(vectors):
        problems.append(f"{diagram}: a dimension vector is listed twice")
    if set(vectors) != roots:
        missing = sorted(roots - set(vectors))[:3]
        extra = sorted(set(vectors) - roots)[:3]
        problems.append(f"{diagram}: roots missing {missing}, non-roots listed {extra}")
    return problems


def _find(node, key):
    """Every dict under `node` (depth first) that holds `key`."""
    found = []
    if isinstance(node, dict):
        if key in node:
            found.append(node)
        for value in node.values():
            found.extend(_find(value, key))
    elif isinstance(node, list):
        for value in node:
            found.extend(_find(value, key))
    return found


def check_suite(reports, name: str) -> list[str]:
    """A `suite --n 1` run on a self-injective Nakayama algebra."""
    if not isinstance(reports, list):
        return [f"{name}: suite output is not a list of reports"]
    problems = []
    claims = [r.get("claim") if isinstance(r, dict) else None for r in reports]
    if sorted(map(str, claims)) != sorted(CLAIMS):
        problems.append(f"{name}: claims {claims}, expected the eleven {list(CLAIMS)}")
    by_claim = {}
    for r in reports:
        if not isinstance(r, dict):
            continue
        by_claim[r.get("claim")] = r
        if r.get("pass") is not True:
            problems.append(f"{name}: {r.get('claim')} reports pass={r.get('pass')!r}")
    m, ell = NAKAYAMA[name]
    counts = _find(by_claim.get("Corres"), "orbit_classes")
    if not counts:
        problems.append(f"{name}: Corres reports no class counts")
    for c in counts:
        if (c.get("base_indecomposables"), c.get("orbit_classes")) != (m * ell, m * ell):
            problems.append(
                f"{name}: Corres counts {c.get('base_indecomposables')}/"
                f"{c.get('orbit_classes')}, expected m*l = {m * ell}"
            )
    pairs = _find(by_claim.get("TiltingPushdown"), "upstairs_orbit_pairs")
    if not pairs:
        problems.append(f"{name}: TiltingPushdown reports no pair counts")
    for p in pairs:
        up, down = p.get("upstairs_orbit_pairs"), p.get("downstairs_pairs")
        if up != down:
            problems.append(f"{name}: {up} upstairs orbit pairs, {down} downstairs pairs")
        if name in LOCAL_PAIRS and down != LOCAL_PAIRS[name]:
            problems.append(f"{name}: {down} pairs on a local algebra, expected {LOCAL_PAIRS[name]}")
    rows = [
        row
        for w in _find(by_claim.get("TiltingFinite"), "per_vertex")
        if isinstance(w["per_vertex"], list)
        for row in w["per_vertex"]
        if isinstance(row, dict)
    ]
    if not rows:
        problems.append(f"{name}: TiltingFinite reports no per-vertex counts")
    for row in rows:
        if row.get("downstairs") != row.get("upstairs_orbits"):
            problems.append(f"{name}: TiltingFinite counts differ at vertex {row.get('vertex')}")
    return problems

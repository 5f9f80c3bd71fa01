"""Independent test oracles, deliberately written the slow obvious way.

Nothing here shares logic with the library implementations it checks: the
pattern scan walks every 4- and 5-vertex induced subgraph, relabeling, the
correlated merge and the three operad products (partial composition,
grafting and disjoint union) rewrite edge lists and validate the result
through ``Shrub(...)``, isomorphism tries every height-preserving
bijection, the canonical form tries every product of per-level
permutations, the order-composition oracle builds
shuffles recursively (the library picks the tail's places with
``itertools.combinations``), compatible orders come from a recursive
backtracker over label sets, the index-0 action substitutes variables into
the compositional fraction ``kappa`` through the generic linear-form path
(sharing only the inverse, ``reconstruct``, with the library), and the
closed formula and its inverse run on linear forms, factored fractions and
validated sub-shrubs instead of label masks, and fraction text is written
from the linear forms.  The generator-word oracles peel and rebuild
recursively, through validated intermediate shrubs, the word repr is
spliced from the repr ``dataclasses`` generates for each node, and word JSON
is read and written recursively.
"""

import dataclasses
import functools
import itertools

from shrubs.anticyclic import SignedShrub, act
from shrubs.core import Shrub, _bits, label_key, trivial_shrub
from shrubs.errors import CapExceeded, LabelClash, MalformedWord, NotCorrelated, NotInImage, UnknownLabel
from shrubs.mould import FactoredFraction, LinearForm, kappa
from shrubs.operad import GenWord, fresh_slots
from shrubs.reconstruction import reconstruct
from shrubs.zinbiel import ORDER_CAP


def _edge(P, a, b):
    return b in (P.covers(a) | P.covered_by(a))


def naive_forbidden_pattern(P: Shrub):
    """Scan all 4- and 5-subsets for the two excluded induced shapes."""
    verts = list(P.labels)
    h = P.height_map
    for quad in itertools.combinations(verts, 4):
        for w, x, y, z in itertools.permutations(quad):
            if not (h[w] == h[x] + 1 == h[y] + 1 == h[z] + 2):
                continue
            wanted = {
                (w, x): True, (w, y): True, (y, z): True,
                (x, z): False, (x, y): False, (w, z): False,
            }
            if all(_edge(P, a, b) == present for (a, b), present in wanted.items()):
                return "F4", (w, x, y, z)
    for quint in itertools.combinations(verts, 5):
        for x, y, p, q, r in itertools.permutations(quint):
            if not (h[x] == h[y] == h[p] + 1 == h[q] + 1 == h[r] + 1):
                continue
            wanted = {
                (x, p): True, (x, q): True, (y, q): True, (y, r): True,
                (x, r): False, (y, p): False, (x, y): False,
                (p, q): False, (p, r): False, (q, r): False,
            }
            if all(_edge(P, a, b) == present for (a, b), present in wanted.items()):
                return "F5", (x, y, p, q, r)
    return None


def first_pattern_by_pairs(covers):
    """The first F4 or F5 witness as index tuples, trying every pair of
    vertices in index order."""
    n = len(covers)
    bits = [[t for t in range(n) if m >> t & 1] for m in covers]
    for w in range(n):
        for x, y in itertools.combinations(bits[w], 2):
            if covers[x] != covers[y]:
                if not covers[y] & ~covers[x]:
                    x, y = y, x
                return "F4", (w, x, y, next(t for t in bits[y] if t not in bits[x]))
    for x in range(n):
        for y in range(x + 1, n):
            common = set(bits[x]) & set(bits[y])
            only_x = [t for t in bits[x] if t not in common]
            only_y = [t for t in bits[y] if t not in common]
            if common and only_x and only_y:
                return "F5", (x, y, only_x[0], min(common), only_y[0])
    return None


def _check_new_label(label):
    if not isinstance(label, (int, str)) or isinstance(label, bool):
        raise TypeError(f"labels must be int or str, got {label!r}")


def oracle_relabel(P: Shrub, mapping) -> Shrub:
    """Rename the labels of ``P`` in its height map and edge list, and
    validate the result through ``Shrub(...)``."""
    new = {v: mapping.get(v, v) for v in P.labels}
    for w in new.values():
        _check_new_label(w)
    images = list(new.values())
    clash = {w for w in images if images.count(w) > 1}
    if clash:
        raise LabelClash(sorted(clash, key=label_key))
    height = {new[v]: h for v, h in P.height_map.items()}
    return Shrub(images, height, [(new[a], new[b]) for a, b in P.edges])


def oracle_merge_correlated(P: Shrub, a, b, new_label) -> Shrub:
    """Merge the correlated pair ``a``, ``b`` of ``P`` into one vertex
    ``new_label``: list the edges by label, give the new vertex the edges of
    ``a``, and validate the result through ``Shrub(...)``."""
    down, up = P.covers(a), P.covered_by(a)
    if a == b or (P.covers(b), P.covered_by(b)) != (down, up):
        raise NotCorrelated((a, b))
    _check_new_label(new_label)
    if new_label in P and new_label not in (a, b):
        raise LabelClash((new_label,))
    keep = [v for v in P.labels if v not in (a, b)]
    height = {v: P.height(v) for v in keep}
    height[new_label] = P.height(a)
    edges = [e for e in P.edges if a not in e and b not in e]
    edges += [(new_label, t) for t in down] + [(s, new_label) for s in up]
    return Shrub(keep + [new_label], height, edges)


def oracle_compose(P: Shrub, i, Q: Shrub) -> Shrub:
    """Substitute ``Q`` into vertex ``i`` of ``P``: list the edges by label,
    join every former neighbor of ``i`` to every root of ``Q``, and validate
    the result through ``Shrub(...)``."""
    if not isinstance(i, (int, str)) or isinstance(i, bool) or i not in P.labels:
        raise UnknownLabel(i, "composition slot")
    clash = (set(P.labels) - {i}) & set(Q.labels)
    if clash:
        raise LabelClash(sorted(clash, key=label_key))
    if len(Q) == 0:
        raise ValueError("cannot compose with an empty shrub")
    hi = P.height(i)
    vertices = [v for v in P.labels if v != i] + list(Q.labels)
    height = {v: P.height(v) for v in P.labels if v != i}
    for v in Q.labels:
        height[v] = Q.height(v) + hi
    edges = [e for e in P.edges if i not in e]
    edges.extend(Q.edges)
    for j in P.covers(i) | P.covered_by(i):
        for r in Q.roots():
            edges.append((j, r))
    return Shrub(vertices, height, edges)


def _oracle_check_disjoint(P: Shrub, Q: Shrub):
    clash = set(P.labels) & set(Q.labels)
    if clash:
        raise LabelClash(sorted(clash, key=label_key))


def oracle_disjoint_union(P: Shrub, Q: Shrub) -> Shrub:
    """``P`` and ``Q`` side by side, validated through ``Shrub(...)``."""
    _oracle_check_disjoint(P, Q)
    height = P.height_map
    height.update(Q.height_map)
    return Shrub(P.labels + Q.labels, height, list(P.edges) + list(Q.edges))


def oracle_graft(P: Shrub, Q: Shrub) -> Shrub:
    """``Q`` one level up, each of its roots joined to every root of ``P``,
    validated through ``Shrub(...)``."""
    _oracle_check_disjoint(P, Q)
    height = P.height_map
    for v in Q.labels:
        height[v] = Q.height(v) + 1
    edges = list(P.edges) + list(Q.edges)
    for a in P.roots():
        for b in Q.roots():
            edges.append((a, b))
    return Shrub(P.labels + Q.labels, height, edges)


def graph_candidates(n):
    """Every (heights, edges) pair satisfying the two height axioms on 1..n,
    with no pattern filtering at all."""
    labels = tuple(range(1, n + 1))
    for heights in itertools.product(range(n), repeat=n):
        if 0 not in heights:
            continue
        hmap = dict(zip(labels, heights))
        levels = {}
        for v, hh in hmap.items():
            levels.setdefault(hh, []).append(v)
        if set(levels) != set(range(max(heights) + 1)):
            continue
        per_vertex = []
        ok = True
        for v in labels:
            if hmap[v] == 0:
                continue
            below = levels.get(hmap[v] - 1, [])
            if not below:
                ok = False
                break
            subsets = [
                combo
                for k in range(1, len(below) + 1)
                for combo in itertools.combinations(below, k)
            ]
            per_vertex.append((v, subsets))
        if not ok:
            continue
        for choice in itertools.product(*(s for _, s in per_vertex)):
            edges = []
            for (v, _), targets in zip(per_vertex, choice):
                for t in targets:
                    edges.append((v, t))
            yield hmap, edges


def brute_force_isomorphic(P: Shrub, Q: Shrub) -> bool:
    """Try every height-preserving bijection from P's labels to Q's."""
    if len(P) != len(Q):
        return False
    pv = list(P.labels)
    for image in itertools.permutations(Q.labels):
        phi = dict(zip(pv, image))
        if any(P.height(v) != Q.height(phi[v]) for v in pv):
            continue
        mapped = {tuple(sorted((str(phi[a]), str(phi[b])))) for a, b in P.edges}
        actual = {tuple(sorted((str(a), str(b)))) for a, b in Q.edges}
        if mapped == actual:
            return True
    return False


def oracle_canonical_form(P: Shrub):
    """``Shrub.canonical_form`` by exhaustion: every product of per-level
    permutations, keeping the first relabeling (in ``itertools.product``
    order) that minimizes the sorted edge list, validated through
    ``Shrub(...)``."""
    n = len(P.labels)
    if n == 0:
        return P, {}
    order = sorted(range(n), key=lambda i: (P._heights[i], label_key(P.labels[i])))
    levels = []
    for _, grp in itertools.groupby(order, key=lambda i: P._heights[i]):
        levels.append(list(grp))
    edge_idx = []
    for j, m in enumerate(P._covers):
        for i in _bits(m):
            edge_idx.append((i, j))
    best = None
    best_assign = None
    for perms in itertools.product(*(itertools.permutations(lv) for lv in levels)):
        new = [0] * n
        k = 1
        for lv in perms:
            for i in lv:
                new[i] = k
                k += 1
        key = tuple(sorted((new[i], new[j]) if new[i] < new[j] else (new[j], new[i]) for i, j in edge_idx))
        if best is None or key < best:
            best = key
            best_assign = new
    heights = {best_assign[i]: P._heights[i] for i in range(n)}
    canon = Shrub(range(1, n + 1), heights, list(best))
    return canon, {P.labels[i]: best_assign[i] for i in range(n)}


def _shuffles(a, b):
    if not a:
        yield tuple(b)
        return
    if not b:
        yield tuple(a)
        return
    for rest in _shuffles(a[1:], b):
        yield (a[0],) + rest
    for rest in _shuffles(a, b[1:]):
        yield (b[0],) + rest


def shuffle_compose_orders(pi, i, sigma):
    """Order composition built directly: the prefix before the slot stays
    put, the inner head takes the slot, and the inner tail shuffles with
    the remainder."""
    pos = pi.index(i)
    pre, post = pi[:pos], pi[pos + 1 :]
    head, tail = sigma[0], sigma[1:]
    return [pre + (head,) + w for w in _shuffles(post, tail)]


def oracle_compatible_orders(P: Shrub) -> tuple:
    """All total orders where each vertex exceeds something it covers.

    Backtracking over placeable vertices (height 0, or covering an already
    placed vertex); output in lexicographic label order.
    """
    n = len(P)
    if n > ORDER_CAP:
        raise CapExceeded(f"{n} labels exceed the order-enumeration cap {ORDER_CAP}")
    verts = sorted(P.labels, key=label_key)
    covers = {v: P.covers(v) for v in verts}
    heights = {v: P.height(v) for v in verts}
    out = []
    placed = []
    placed_set = set()

    def rec():
        if len(placed) == n:
            out.append(tuple(placed))
            return
        for v in verts:
            if v in placed_set:
                continue
            if heights[v] == 0 or covers[v] & placed_set:
                placed.append(v)
                placed_set.add(v)
                rec()
                placed.pop()
                placed_set.remove(v)

    rec()
    return tuple(out)


def permuted_fraction(sigma, f: FactoredFraction, n: int) -> FactoredFraction:
    """Replace each ``u_k`` by ``u_{sigma(k)}`` and eliminate ``u0``.

    Each substituted factor renormalizes to a primitive form, feeding its
    extracted sign into the fraction's global sign.
    """
    mapping = {}
    minus_all = {j: -1 for j in range(1, n + 1)}
    for k in range(1, n + 1):
        img = sigma[k]
        mapping[k] = dict(minus_all) if img == 0 else {img: 1}
    return f.substitute(mapping)


def oracle_act(sigma, x: SignedShrub) -> SignedShrub:
    """The index-0 action by substitution into ``kappa`` of the shrub."""
    f = permuted_fraction(sigma, kappa(x.shrub), x.n)
    if f.scalar != 1:
        raise NotInImage(f"permuted fraction has scalar {f.scalar}")
    return SignedShrub(x.sign * f.sign, reconstruct(f.magnitude()))


def oracle_orbit(x: SignedShrub) -> set:
    """The orbit of ``x`` as a set: breadth-first search under all ``n``
    adjacent transpositions of ``{0..n}``, through the public :func:`act`.
    It shares ``act`` with :func:`shrubs.anticyclic.orbit` (``oracle_act``
    checks that), not the generators, the search or the order."""
    n = x.n
    steps = []
    for i in range(n):
        sigma = list(range(n + 1))
        sigma[i], sigma[i + 1] = sigma[i + 1], sigma[i]
        steps.append(tuple(sigma))
    seen, frontier = {x}, [x]
    while frontier:
        frontier = [z for z in {act(s, y) for y in frontier for s in steps} if z not in seen]
        seen.update(frontier)
    return seen


# -- the closed formula and its inverse on linear forms -----------------------


def oracle_fraction_factors(P: Shrub):
    """The closed formula through ``upper_ideal`` and a validated sub-shrub
    per ramification class: numerator and denominator forms, unreduced."""
    if len(P) == 0:
        raise ValueError("the empty shrub has no fraction")
    num, den = [], []
    for v in sorted(P.labels, key=label_key):
        den.append(LinearForm.sum_of(P.upper_ideal({v})))
    heights = P.height_map
    for rc in P.ram_classes():
        den.append(LinearForm.sum_of(P.upper_ideal(rc.targets)))
        outside = set(P.labels) - P.upper_ideal(rc.members)
        sub = Shrub(
            outside,
            {v: heights[v] for v in outside},
            [e for e in P.edges if e[0] in outside and e[1] in outside],
        )
        num.append(LinearForm.sum_of(sub.upper_ideal(rc.targets)))
    return num, den


def oracle_fraction(P: Shrub) -> FactoredFraction:
    return FactoredFraction(1, 1, *oracle_fraction_factors(P))


def oracle_format_fraction(ff: FactoredFraction) -> str:
    """Fraction text written from the linear forms, one ``LinearForm.text``
    per factor, numerator first."""
    head = "-" if ff.sign < 0 else ""
    if ff.scalar != 1:
        head += f"{ff.scalar}*"
    num = "".join(f"({f.text()})" for f in ff.num) or "1"
    if not ff.den:
        return head + num
    den = "".join(f"({f.text()})" for f in ff.den)
    if len(ff.den) > 1:
        den = f"({den})"
    return f"{head}{num}/{den}"


def oracle_components(f: FactoredFraction) -> tuple:
    """Labels joined by shared denominator factors, by union-find."""
    labels = sorted(f.labels, key=label_key)
    parent = {v: v for v in labels}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for form in f.den:
        support = sorted(form.support(), key=label_key)
        for other in support[1:]:
            ra, rb = find(support[0]), find(other)
            if ra != rb:
                parent[rb] = ra
    groups = {}
    for v in labels:
        groups.setdefault(find(v), []).append(v)
    parts = [frozenset(g) for g in groups.values()]
    parts.sort(key=lambda p: min(label_key(v) for v in p))
    return tuple(parts)


def _oracle_roots(f: FactoredFraction, labels) -> list:
    F = f * FactoredFraction(num=[LinearForm.sum_of(labels)])
    roots = []
    for a in sorted(labels, key=label_key):
        dn = sum(1 for g in F.num if a in g.support())
        dd = sum(1 for g in F.den if a in g.support())
        if dn > dd:
            raise NotInImage(f"degree in u{a} grows: not an order combination")
        if dn == dd:
            roots.append(a)
    if not roots:
        raise NotInImage("no label can start a compatible order")
    return roots


def _split_by_support(forms, left, right):
    out_left, out_right = [], []
    for form in forms:
        support = form.support()
        if support <= left:
            out_left.append(form)
        elif support <= right:
            out_right.append(form)
        else:
            raise NotInImage(f"factor {form.text()} straddles the graft split")
    return out_left, out_right


def _oracle_connected(f: FactoredFraction, labels) -> Shrub:
    if len(labels) == 1:
        (a,) = labels
        if f.num or f.den != (LinearForm(((a, 1),)),):
            raise NotInImage("a single-vertex fraction must be 1/u")
        return trivial_shrub(a)
    roots = _oracle_roots(f, labels)
    full = LinearForm.sum_of(labels)
    if full not in f.den:
        raise NotInImage("a connected fraction needs the full-sum denominator factor")
    den = list(f.den)
    den.remove(full)
    if len(roots) == 1:
        (i,) = roots
        rest = FactoredFraction(f.sign, f.scalar, f.num, den)
        if i in rest.labels:
            raise NotInImage(f"u{i} survives after stripping the root factor")
        return oracle_graft(trivial_shrub(i), _oracle_rebuild(rest, labels - {i}))
    root_set = frozenset(roots)
    candidates = [g for g in f.num if root_set <= g.support()]
    if len(candidates) != 1:
        raise NotInImage(
            f"{len(candidates)} numerator factors contain every height-0 vertex (need exactly 1)"
        )
    alpha = candidates[0]
    q_labels = alpha.support()
    r_labels = labels - q_labels
    if not r_labels:
        raise NotInImage("the graft numerator factor must miss some label")
    num = list(f.num)
    num.remove(alpha)
    num_q, num_r = _split_by_support(num, q_labels, r_labels)
    den_q, den_r = _split_by_support(den, q_labels, r_labels)
    fq = FactoredFraction(f.sign, f.scalar, num_q, den_q)
    fr = FactoredFraction(1, 1, num_r, den_r)
    return oracle_graft(_oracle_rebuild(fq, q_labels), _oracle_rebuild(fr, r_labels))


def _oracle_rebuild(f: FactoredFraction, labels) -> Shrub:
    if not labels:
        raise NotInImage("no labels to reconstruct from")
    parts = oracle_components(f)
    covered = set().union(*parts) if parts else set()
    if covered != labels:
        raise NotInImage("some label appears in no denominator factor")
    if len(parts) == 1:
        return _oracle_connected(f, labels)
    num_by_part = {p: [] for p in parts}
    den_by_part = {p: [] for p in parts}
    for source, sink in ((f.num, num_by_part), (f.den, den_by_part)):
        for form in source:
            support = form.support()
            home = next((p for p in parts if support <= p), None)
            if home is None:
                raise NotInImage(f"factor {form.text()} straddles components")
            sink[home].append(form)
    pieces = []
    for k, p in enumerate(parts):
        piece_fraction = FactoredFraction(
            f.sign if k == 0 else 1,
            f.scalar if k == 0 else 1,
            num_by_part[p],
            den_by_part[p],
        )
        pieces.append(_oracle_rebuild(piece_fraction, p))
    return functools.reduce(oracle_disjoint_union, pieces)


def oracle_reconstruct(f: FactoredFraction, cap: int | None = None) -> Shrub:
    """``reconstruct`` on factored fractions: validated grafts and disjoint
    unions, certified by :func:`oracle_fraction`; the same checks, in the
    same order, with the same exceptions and messages."""
    if f.sign != 1 or f.scalar != 1:
        raise NotInImage("a shrub fraction has sign +1 and scalar 1")
    labels = frozenset(f.labels)
    if cap is not None and len(labels) > cap:
        raise CapExceeded(f"{len(labels)} labels exceed the reconstruction cap {cap}")
    shrub = _oracle_rebuild(f, labels)
    if oracle_fraction(shrub) != f:
        raise NotInImage("the rebuilt shrub does not reproduce the fraction")
    return shrub


def oracle_evaluate(word: GenWord) -> Shrub:
    """Evaluate a word recursively, one validated graft or union per node."""
    if not isinstance(word, GenWord):
        raise MalformedWord(f"not a generator word: {word!r}")
    labels = word.leaf_labels()
    if len(set(labels)) != len(labels):
        raise MalformedWord("leaf labels repeat")

    def ev(w):
        if w.gen == "leaf":
            return trivial_shrub(w.label)
        if len(w.args) != 2:
            raise MalformedWord("a generator node needs exactly two args")
        left, right = (ev(a) for a in w.args)
        if w.gen == "C":
            return oracle_disjoint_union(left, right)
        if w.gen == "D":
            return oracle_graft(left, right)
        raise MalformedWord(f"unknown generator {w.gen!r}")

    return ev(word)


def _replace_leaf(word: GenWord, slot, replacement: GenWord) -> GenWord:
    if word.gen == "leaf":
        return replacement if word.label == slot else word
    return GenWord(
        gen=word.gen,
        slot=word.slot,
        args=tuple(_replace_leaf(a, slot, replacement) for a in word.args),
    )


def oracle_decompose(P: Shrub) -> GenWord:
    """The peel on validated shrubs: merge the smallest correlated pair, else
    delete the smallest leaf, recurse on the rest and substitute the step's
    node for its slot in the word that comes back."""
    if len(P) == 0:
        raise ValueError("cannot decompose an empty shrub")
    slots = fresh_slots(P.labels)

    def rec(S: Shrub) -> GenWord:
        if len(S) == 1:
            return GenWord.leaf(S.labels[0])
        pairs = S.correlated_pairs()
        if pairs:
            a, b = pairs[0]
            slot = next(slots)
            rest = S.merge_correlated(a, b, slot)
            inner = GenWord.node("C", slot, GenWord.leaf(a), GenWord.leaf(b))
        else:
            leaf = min(S.leaves(), key=label_key)
            (under,) = S.covers(leaf)
            slot = next(slots)
            rest = S.delete_leaf(leaf).relabel({under: slot})
            inner = GenWord.node("D", slot, GenWord.leaf(under), GenWord.leaf(leaf))
        return _replace_leaf(rec(rest), slot, inner)

    return rec(P)


# a dataclass with the fields of GenWord and its name, so that its repr is
# the one ``dataclasses`` generates for GenWord
_PlainWord = dataclasses.make_dataclass("GenWord", ["gen", "label", "slot", "args"], frozen=True)
_MARK = "\x00"


def oracle_word_json_obj(word):
    """The JSON values of a word, built recursively."""
    if word.gen == "leaf":
        return word.label
    return {"gen": word.gen, "slot": word.slot, "args": [oracle_word_json_obj(a) for a in word.args]}


def oracle_word_from_json_obj(obj) -> GenWord:
    """The word of JSON values, checked and built recursively."""
    if isinstance(obj, (int, str)) and not isinstance(obj, bool):
        return GenWord.leaf(obj)
    if not isinstance(obj, dict):
        raise MalformedWord(f"expected a label or an object, got {obj!r}")
    gen = obj.get("gen")
    if gen not in ("C", "D"):
        raise MalformedWord(f"unknown generator {gen!r}")
    args = obj.get("args")
    if not isinstance(args, list) or len(args) != 2:
        raise MalformedWord("a generator node needs exactly two args")
    left = oracle_word_from_json_obj(args[0])
    return GenWord.node(gen, obj.get("slot"), left, oracle_word_from_json_obj(args[1]))


class _Marker:
    def __repr__(self):
        return _MARK


def dataclass_repr(word) -> str:
    """The dataclass repr of ``word``: each node's own repr with markers for
    its arguments, spliced together with an explicit stack."""
    out = []
    stack = [(word,)]  # text as str, a node in a 1-tuple
    while stack:
        w = stack.pop()
        if type(w) is str:
            out.append(w)
            continue
        (w,) = w
        if not isinstance(w, GenWord):
            out.append(repr(w))
        elif type(w.args) is not tuple:
            out.append(repr(_PlainWord(w.gen, w.label, w.slot, w.args)))
        else:
            marked = _PlainWord(w.gen, w.label, w.slot, tuple(_Marker() for _ in w.args))
            pieces = repr(marked).split(_MARK)
            for k in reversed(range(len(pieces))):
                stack.append(pieces[k])
                if k:
                    stack.append((w.args[k - 1],))
    return "".join(out)


def outcome(fn, *args):
    """``("ok", result)`` or ``(exception class, message)``, for comparing
    two implementations that must agree on both."""
    try:
        return "ok", fn(*args)
    except (CapExceeded, NotInImage) as exc:
        return type(exc), str(exc)

"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from helpers import reference_transpose
from latticecell import DocumentVector, FormalContext
from latticecell.bits import mask_from_indices


@st.composite
def contexts(draw):
    """0-12 objects and attributes; each column is empty, full or random."""
    n_objects, n_attributes = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    random_column = st.lists(st.booleans(), min_size=n_objects,
                             max_size=n_objects).map(
        lambda bits: mask_from_indices(i for i, bit in enumerate(bits) if bit))
    columns = draw(st.lists(random_column
                            | st.sampled_from((0, (1 << n_objects) - 1)),
                            min_size=n_attributes, max_size=n_attributes))
    return FormalContext(tuple(f"o{i}" for i in range(n_objects)),
                         tuple(f"a{j}" for j in range(n_attributes)),
                         tuple(reference_transpose(columns, n_objects)))


@st.composite
def labeled_vectors(draw):
    """Training vectors drawn from a small pool, so that more draws than
    pool entries repeat a vector, plus one all-zero vector; a query; and
    the training categories in a drawn order, as a baseline's training set
    is labeled."""
    size = draw(st.integers(0, 8))
    pool = draw(st.lists(st.integers(0, 2 ** size - 1), min_size=1,
                         max_size=4))
    rows = draw(st.lists(st.sampled_from(pool), min_size=len(pool) + 1,
                         max_size=12))
    rows.insert(draw(st.integers(0, len(rows))), 0)
    labels = draw(st.lists(st.sampled_from("ABC"), min_size=len(rows),
                           max_size=len(rows)))
    train = [DocumentVector(bits, size, label, f"d{n}")
             for n, (bits, label) in enumerate(zip(rows, labels))]
    query = draw(st.integers(0, 2 ** size - 1))
    categories = draw(st.permutations(sorted(set(labels))))
    return train, query, categories

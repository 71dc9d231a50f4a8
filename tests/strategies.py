"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from helpers import reference_transpose
from latticecell import FormalContext
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

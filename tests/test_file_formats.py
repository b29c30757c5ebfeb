"""Malformed measure and finite-space files: each refusal's text, line and column."""

import pytest

from otlab import (
    Euclidean,
    Finite,
    Interval,
    ParseError,
    Product,
    load_finite_space,
    load_measure,
)

INTERVAL = Interval(1)
PLANE = Euclidean(2)
PAIR = Finite(((0, 1), (1, 0)))
STRIP = Product(1, 1, Interval(1))
PLANE_STRIP = Product(1, 1, PLANE)


def measure_of(space):
    return lambda path: load_measure(path, space, exact=True)


def finite_space(path):
    return load_finite_space(path, exact=True)


# (reader, file text, message, line, column); comments and blank lines count
# toward the line number and are otherwise ignored. The column counts tokens:
# an atom of the wrong shape names its point's first token, a bad count or
# row the line's first; an error at the end of the file has no column.
MALFORMED = [
    (measure_of(INTERVAL), "space i\n1 0 0\n", "interval atom needs: mass t", 2, 2),
    (measure_of(PLANE), "# plane\nspace e\n\n1 0\n", "euclidean atom needs 2 coordinates", 4, 2),
    (measure_of(PAIR), "space f\n1 0 1  # two indices\n", "finite atom needs: mass idx", 2, 2),
    (measure_of(STRIP), "space p\n1/2 0 1\n1/2 0.5\n", "product atom needs: mass t x...", 3, 2),
    (measure_of(PLANE_STRIP), "space p\n1 0 1\n", "euclidean atom needs 2 coordinates", 2, 3),
    (measure_of(INTERVAL), "\n  # header next\nspaces i\n1 0\n", "expected header: space <id>", 3, 1),
    (measure_of(INTERVAL), "space i\nx 0\n", "invalid mass 'x'", 2, 1),
    (measure_of(INTERVAL), "", "missing header: space <id>", 1, 1),
    (measure_of(INTERVAL), "# only a comment\n\n", "missing header: space <id>", 1, 1),
    (measure_of(INTERVAL), "space i\n# no atoms\n\n", "measure file has no atoms", 3, None),
    (measure_of(INTERVAL), "space i\n1/2 0\n", "masses sum to 1/2, expected 1 within 0", None, None),
    (measure_of(INTERVAL), "space i\n1 2\n", "interval coordinate 2 outside [0, 1]", None, None),
    (finite_space, "x\n", "expected point count", 1, 1),
    (finite_space, "# size\n0\n", "point count must be positive", 2, 1),
    (finite_space, "2\n0 1 2\n", "expected 2 entries, got 3", 2, 1),
    (finite_space, "2\n0 1\n\n1 q # bad\n", "invalid number 'q'", 4, 2),
    (finite_space, "", "empty finite-space file", 1, None),
    (finite_space, "\n# nothing\n", "empty finite-space file", 2, None),
    (finite_space, "2\n0 1\n# one row\n", "expected 2 rows, got 1", 3, None),
    (finite_space, "1\n0\n0\n", "unexpected line after the 1 rows of the matrix", 3, 1),
    (finite_space, "2\n0 1\n2 0\n", "asymmetric entries at (0, 1)", None, None),
]


@pytest.mark.parametrize("read, text, message, line, column", MALFORMED)
def test_malformed_file_reports_its_text_line_and_column(tmp_path, read, text, message, line, column):
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as info:
        read(str(path))
    where = "".join(f"{n}:" for n in (line, column) if n is not None)
    assert str(info.value) == f"{path}:{where} {message}"
    assert (info.value.path, info.value.line, info.value.column) == (str(path), line, column)


@pytest.mark.parametrize(
    "read, bare, commented",
    [
        (
            measure_of(STRIP),
            "space p\n1/4 0 1/2\n3/4 1 0\n",
            "# a measure on the strip\n\nspace p  # its id\n  # first atom\n1/4 0 1/2\n\n3/4 1 0 # last\n\n",
        ),
        (
            finite_space,
            "3\n0 1 2\n1 0 1\n2 1 0\n",
            "# three points on a line\n3\n\n0 1 2  # from 0\n# middle\n1 0 1\n2 1 0\n\n# end\n",
        ),
    ],
)
def test_comments_and_blank_lines_anywhere_are_ignored(tmp_path, read, bare, commented):
    plain = tmp_path / "bare.txt"
    noted = tmp_path / "commented.txt"
    plain.write_text(bare, encoding="utf-8")
    noted.write_text(commented, encoding="utf-8")
    assert read(str(noted)) == read(str(plain))


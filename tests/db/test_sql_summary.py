"""``_sql_summary``, the statement text a db span carries, splits off
only the words it needs.  Its output must equal the whole-text formula
``" ".join(sql.split())`` cut to ``limit`` characters, whatever the
whitespace, and whatever the text's length around ``limit``."""

from hypothesis import given, settings, strategies as st

from repro.db.backend import _sql_summary

#: whitespace ``str.split`` splits on, ASCII and not
WHITESPACE = (" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2007"
              "\u200a\u2028\u2029\u202f\u205f\u3000")


def whole_text_summary(sql: str, limit: int = 120) -> str:
    text = " ".join(sql.split())
    return text if len(text) <= limit else text[:limit - 1] + "…"


texts = st.text(alphabet=st.sampled_from(WHITESPACE + "ab?,()'\"é漢…"),
                max_size=400)


@settings(max_examples=400, deadline=None)
@given(texts, st.integers(min_value=1, max_value=130))
def test_equals_the_whole_text_formula(sql, limit):
    assert _sql_summary(sql, limit) == whole_text_summary(sql, limit)


@given(texts)
def test_default_limit(sql):
    assert _sql_summary(sql) == whole_text_summary(sql)


def test_edge_lengths():
    for limit in (1, 2, 3, 120):
        for n in (0, 1, limit - 1, limit, limit + 1, 2 * limit):
            for sql in ("x" * n, " ".join("x" * n), "　\n".join(
                    "xy" * n), "  " + "y" * n + "\t"):
                assert _sql_summary(sql, limit) == \
                    whole_text_summary(sql, limit), (sql, limit)
    assert _sql_summary("") == "" == whole_text_summary("")
    exactly = "SELECT " + "x" * 113
    assert len(exactly) == 120
    assert _sql_summary(exactly) == exactly
    assert _sql_summary(exactly + " y") == exactly[:119] + "…"


def test_a_large_statement_is_cut_within_its_first_words():
    sql = " UNION ALL ".join(f'SELECT "x" FROM "r{i}"' for i in range(5000))
    assert _sql_summary(sql) == whole_text_summary(sql)

import pytest

from glyphwave.notation import (
    MAX_TOTAL_RANK,
    MAXWELL,
    SPACETIME,
    DslSyntaxError,
    Message,
    SymbolKind,
    SymbolSpec,
    affinity,
    canonical_messages,
    parse_dsl,
    print_dsl,
    print_symbol,
    tensor,
)


class TestParse:
    def test_vector_at_point(self):
        msg = parse_dsl("vector@p")
        assert msg.symbols == (tensor(1, 0, at_point=True),)

    def test_ranked_tensor(self):
        assert parse_dsl("tensor(2,3)").symbols == (tensor(2, 3),)

    def test_em_token(self):
        assert parse_dsl("em").symbols == (MAXWELL,)

    def test_empty_input_rejected(self):
        with pytest.raises(DslSyntaxError):
            parse_dsl("")
        with pytest.raises(DslSyntaxError):
            parse_dsl("   \t\n ")

    def test_multi_symbol_order_preserved(self):
        msg = parse_dsl("spacetime  em\tvector")
        assert msg.symbols == (SPACETIME, MAXWELL, tensor(1, 0))

    def test_unknown_token_carries_position(self):
        with pytest.raises(DslSyntaxError) as exc:
            parse_dsl("vector bogus em")
        assert exc.value.position == 1

    def test_rank_above_maximum(self):
        assert parse_dsl("tensor(5,4)").symbols == (tensor(5, 4),)
        with pytest.raises(DslSyntaxError):
            parse_dsl("tensor(5,5)")
        with pytest.raises(DslSyntaxError):
            parse_dsl("affinity(10,0)")

    def test_affinity_rules(self):
        assert parse_dsl("affinity(1,2)").symbols == (affinity(1, 2),)
        with pytest.raises(DslSyntaxError):
            parse_dsl("affinity(0,0)")
        with pytest.raises(DslSyntaxError):
            parse_dsl("affinity(1,2)@p")

    @pytest.mark.parametrize(
        "token, reason",
        [
            ("tensor(5,5)", "total rank 10 exceeds maximum 9"),
            ("affinity(0,0)", "affinity symbols need at least one mark"),
            ("affinity(1,2)@p", "affinity symbols carry no point dot"),
        ],
        ids=["rank-cap", "no-mark", "point-dot"],
    )
    def test_invalid_token_gives_the_model_reason(self, token, reason):
        with pytest.raises(DslSyntaxError) as exc:
            parse_dsl(f"vector {token} em")
        assert exc.value.position == 1
        assert str(exc.value) == f"{reason} in {token!r} (token 1)"

    def test_alias_coherence(self):
        assert parse_dsl("riemann") == parse_dsl("tensor(1,3)")
        assert parse_dsl("vector") == parse_dsl("tensor(1,0)")
        assert parse_dsl("form") == parse_dsl("tensor(0,1)")


class TestPrint:
    def test_form_shorthand(self):
        assert print_dsl(Message((tensor(0, 1),))) == "form"

    def test_spacetime(self):
        assert print_dsl(Message((SPACETIME,))) == "spacetime"

    def test_riemann_alias_not_printed(self):
        assert print_dsl(Message((tensor(1, 3),))) == "tensor(1,3)"

    def test_at_point_suffix(self):
        assert print_dsl(Message((tensor(1, 0, at_point=True),))) == "vector@p"
        assert print_dsl(Message((tensor(2, 3, at_point=True),))) == "tensor(2,3)@p"


def all_small_specs(max_rank=3):
    """Every valid single-symbol spec with r, s <= max_rank."""
    specs = [SPACETIME, MAXWELL]
    for r in range(max_rank + 1):
        for s in range(max_rank + 1):
            specs.append(tensor(r, s))
            specs.append(tensor(r, s, at_point=True))
            if r + s >= 1:
                specs.append(affinity(r, s))
    return specs


def test_every_valid_symbol_prints_to_a_token_that_parses_back():
    specs = [SPACETIME, MAXWELL]
    for r in range(MAX_TOTAL_RANK + 1):
        for s in range(MAX_TOTAL_RANK + 1 - r):
            specs += [tensor(r, s), tensor(r, s, at_point=True)]
            if r + s >= 1:
                specs.append(affinity(r, s))
    assert len(specs) == 166
    for spec in specs:
        assert parse_dsl(print_symbol(spec)).symbols == (spec,)
    for name in ("spacetime", "em", "vector", "vector@p", "form", "form@p"):
        assert print_dsl(parse_dsl(name)) == name
    assert print_dsl(parse_dsl("riemann")) == "tensor(1,3)"


def test_round_trip_exhaustive_small_ranks():
    for spec in all_small_specs():
        msg = Message((spec,))
        assert parse_dsl(print_dsl(msg)) == msg


def test_round_trip_multi_symbol():
    specs = all_small_specs()
    msg = Message(tuple(specs))
    assert parse_dsl(print_dsl(msg)) == msg


class TestInvariants:
    def test_non_tensor_kinds_reject_rank(self):
        with pytest.raises(ValueError):
            SymbolSpec(SymbolKind.SPACETIME, contra_rank=1)
        with pytest.raises(ValueError):
            SymbolSpec(SymbolKind.MAXWELL, at_point=True)

    def test_affinity_excludes_point(self):
        with pytest.raises(ValueError):
            SymbolSpec(SymbolKind.TENSOR, 1, 0, at_point=True, affinity=True)

    def test_total_rank_bound(self):
        tensor(MAX_TOTAL_RANK, 0)
        with pytest.raises(ValueError):
            tensor(MAX_TOTAL_RANK, 1)

    def test_negative_rank(self):
        with pytest.raises(ValueError):
            tensor(-1, 0)

    def test_empty_message(self):
        with pytest.raises(ValueError):
            Message(())


class TestCanonicalMessages:
    def test_names(self):
        assert set(canonical_messages()) == {"riemann", "spacetime", "em", "primer"}

    def test_contents(self):
        msgs = canonical_messages()
        assert msgs["em"].symbols == (MAXWELL,)
        assert msgs["riemann"].symbols == (tensor(1, 3),)
        assert msgs["spacetime"].symbols == (SPACETIME,)

    def test_primer_order(self):
        primer = canonical_messages()["primer"]
        assert primer.symbols[0] == tensor(1, 0, at_point=True)
        assert print_dsl(primer) == (
            "vector@p vector form@p form tensor(2,3) spacetime em tensor(1,3)"
        )

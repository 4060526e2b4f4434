"""The error contract of the public library API, one case per call.

A public function given arguments of its documented types returns or
raises a ``CuspAtlasError``; an argument of the wrong Python type raises a
``TypeError`` whose text the library wrote, through ``orbits.require_type``
(or ``orbits.as_int`` for an integer).  Each case below names one call, the
exception type it raises and its exact text.
"""

import pytest

from cusp_atlas.census import count_identity, enumerate_parameters, unipotent_census
from cusp_atlas.cuspsupport import (
    all_order_slice_supports,
    check_support,
    support,
    support_via_psi,
)
from cusp_atlas.errors import InvalidParameter
from cusp_atlas.lparams import (
    DiscreteParameter,
    IrrLabel,
    ParameterCharacter,
    SelfDualType,
    infinitesimal_character,
    is_cuspidal,
    sgroup_factors,
    validate_parameter,
)
from cusp_atlas.orbits import (
    Family,
    GroupKind,
    Partition,
    classical_kind,
    cuspidal_pair,
    require_type,
    staircase_signs,
)
from cusp_atlas.springer import springer_datum, springer_o

SP6 = GroupKind(Family.SP, 6)
O4 = GroupKind(Family.O_EVEN, 4)
U = IrrLabel("u", 1, SelfDualType.ORTHOGONAL)
PARAM = DiscreteParameter(SP6, [(U, 2), (U, 4)])
ETA = ParameterCharacter({("u", 2): 1, ("u", 4): -1})

GROUP = "a group is a GroupKind, got str"
DUAL = "a dual group is a GroupKind, got str"
NO_PARAM = "a parameter is a DiscreteParameter, got NoneType"
NO_CHAR = "a character is a SignCharacter, got NoneType"
STAIRCASE = "a staircase has d >= 0 parts and a first sign of +1 or -1, got d = 2 and first = "

CASES = {
    # an entry point that takes a group
    "springer_datum-kind": (lambda: springer_datum("Sp", Partition((4, 2)), (1, -1)),
                            TypeError, GROUP),
    "springer_datum-partition": (lambda: springer_datum(SP6, (4, 2), (1, -1)),
                                 TypeError, "a partition is a Partition, got tuple"),
    "springer_o-kind": (lambda: springer_o("Oeven", Partition((2, 2)), ()), TypeError, GROUP),
    "springer_o-partition": (lambda: springer_o(O4, [2, 2], ()),
                             TypeError, "a partition is a Partition, got list"),
    "cuspidal_pair": (lambda: cuspidal_pair("Sp"), TypeError, GROUP),
    "unipotent_census": (lambda: unipotent_census("Sp"), TypeError, GROUP),
    "count_identity": (lambda: count_identity("Sp"), TypeError, GROUP),
    "validate_parameter": (lambda: validate_parameter("Sp", [(U, 2), (U, 4)]), TypeError, DUAL),
    "DiscreteParameter": (lambda: DiscreteParameter("Sp", [(U, 2), (U, 4)]), TypeError, DUAL),
    # a reader of a parameter or of a character
    "support-parameter": (lambda: support(None, ETA), TypeError, NO_PARAM),
    "support-character": (lambda: support(PARAM, None), TypeError, NO_CHAR),
    "support-dict": (lambda: support(PARAM, {("u", 2): 1, ("u", 4): -1}),
                     TypeError, "a character is a SignCharacter, got dict"),
    "support_via_psi": (lambda: support_via_psi(None, ETA), TypeError, NO_PARAM),
    "check_support-parameter": (lambda: check_support(None, ETA), TypeError, NO_PARAM),
    "check_support-character": (lambda: check_support(PARAM, None), TypeError, NO_CHAR),
    "is_cuspidal-parameter": (lambda: is_cuspidal(None, ETA), TypeError, NO_PARAM),
    "is_cuspidal-character": (lambda: is_cuspidal(PARAM, None), TypeError, NO_CHAR),
    "sgroup_factors": (lambda: sgroup_factors(None, ETA), TypeError, NO_PARAM),
    "infinitesimal_character": (lambda: infinitesimal_character(None), TypeError, NO_PARAM),
    "all_order_slice_supports": (lambda: all_order_slice_supports(U, 0, (2, 4), None),
                                 TypeError, NO_CHAR),
    # labels and small integers
    "enumerate_parameters": (lambda: next(enumerate_parameters(SP6, ["u"])),
                             TypeError, "a label is an IrrLabel, got str"),
    "staircase_signs-bool-first": (lambda: staircase_signs(2, True),
                                   InvalidParameter, STAIRCASE + "True"),
    "staircase_signs-bool-d": (lambda: staircase_signs(True, 1),
                               TypeError, "expected an integer, got True"),
    "staircase_signs-float-d": (lambda: staircase_signs(2.0, 1),
                                TypeError, "'float' object cannot be interpreted as an integer"),
    "staircase_signs-str-d": (lambda: staircase_signs("2", 1),
                              TypeError, "'str' object cannot be interpreted as an integer"),
    "classical_kind-bool": (lambda: classical_kind(True, 4),
                            InvalidParameter, "a generator parity is 0 or 1, got True"),
}


@pytest.mark.parametrize("call, kind, text", CASES.values(), ids=CASES.keys())
def test_a_breach_raises_its_own_type_and_text(call, kind, text):
    with pytest.raises(Exception) as err:
        call()
    assert (type(err.value), str(err.value)) == (kind, text)


def test_require_type_returns_the_value_or_names_the_class_with_its_article():
    assert require_type(U, IrrLabel, "a label") is U
    assert require_type(True, int, "a count") is True  # a subclass passes
    for value, cls, what, text in (
            ("u", IrrLabel, "a label", "a label is an IrrLabel, got str"),
            (3, str, "a label name", "a label name is a str, got int"),
            ("3", int, "a count", "a count is an int, got str"),
            (None, GroupKind, "a group", "a group is a GroupKind, got NoneType")):
        with pytest.raises(TypeError) as err:
            require_type(value, cls, what)
        assert str(err.value) == text


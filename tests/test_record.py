"""Records: construction, equality, hash, repr, immutability and replace."""

from fractions import Fraction

import pytest

from combident.affine import Affine, Bound
from combident.catalog import get_entry
from combident.terms import AffineFactor, Binom, Const, Product, SignPow, TermSum


def test_construction_takes_positions_keywords_and_defaults():
    n = Affine.var("n")
    assert Binom(n, n) == Binom(upper=n, lower=n, inverted=False)
    assert Bound(n) == Bound(n, False, None)
    assert Affine() == Affine((), Fraction(0))
    with pytest.raises(TypeError):
        Bound()


def test_records_of_different_classes_are_unequal():
    t = (Const(Fraction(1)), Const(Fraction(2)))
    assert Product(t) != TermSum(t)
    a = Affine.var("n")
    assert SignPow(a) != AffineFactor(a)
    assert Product(t) == Product(t)
    assert hash(a) == hash(((("n", 1),), Fraction(0)))


def test_fields_cannot_be_assigned_or_deleted():
    a = Affine.var("n")
    with pytest.raises(AttributeError):
        a.const = Fraction(1)
    with pytest.raises(AttributeError):
        del a.coeffs
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == Affine.var("n")


def test_repr_names_every_field():
    assert repr(Affine.var("n")) == "Affine(coeffs=(('n', 1),), const=Fraction(0, 1))"


def test_replace_gives_a_new_descriptor_with_fresh_caches():
    desc = get_entry("C03").descriptor
    check, kernel_free = desc.check(), desc.kernel_free
    renamed = desc.replace(name="renamed")
    assert renamed is not desc and renamed.name == "renamed" and desc.name == "C03"
    assert renamed == desc and hash(renamed) == hash(desc)  # the name is not compared
    assert "kernel_free" not in renamed.__dict__ and "_checks" not in renamed.__dict__
    assert renamed.kernel_free == kernel_free
    assert renamed.check() is not check
    assert renamed.check().__code__.co_filename == "<combident renamed check>"
    with pytest.raises(TypeError):
        desc.replace(title="x")

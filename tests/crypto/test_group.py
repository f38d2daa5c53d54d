"""Tests for Schnorr-group parameter generation and operations."""

from __future__ import annotations

from random import Random

import pytest

from repro.crypto.field import is_probable_prime
from repro.crypto.group import default_group, generate_group, group_for_profile
from repro.crypto.group import test_group as make_test_group  # avoid pytest collection


class TestParameters:
    def test_test_group_sizes(self, group):
        assert group.p.bit_length() == 128
        assert group.q.bit_length() == 96

    def test_p_and_q_prime(self, group):
        assert is_probable_prime(group.p)
        assert is_probable_prime(group.q)

    def test_q_divides_p_minus_1(self, group):
        assert (group.p - 1) % group.q == 0

    def test_generator_has_order_q(self, group):
        assert group.g != 1
        assert pow(group.g, group.q, group.p) == 1

    def test_deterministic(self):
        a = generate_group(128, 96)
        b = generate_group(128, 96)
        assert (a.p, a.q, a.g) == (b.p, b.q, b.g)

    def test_distinct_sizes_give_distinct_groups(self):
        assert generate_group(128, 96).p != generate_group(160, 96).p

    def test_default_group_sizes(self):
        g = default_group()
        assert g.p.bit_length() == 512
        assert g.q.bit_length() == 256

    def test_profiles(self):
        assert group_for_profile("test").p == make_test_group().p
        with pytest.raises(ValueError):
            group_for_profile("nope")

    def test_scalar_field_built_once(self, group):
        assert group.scalar_field is group.scalar_field
        assert group.scalar_field.modulus == group.q

    def test_q_must_be_smaller_than_p(self):
        with pytest.raises(ValueError):
            generate_group(96, 96)


class TestOperations:
    def test_power_g_membership(self, group, rng):
        for _ in range(20):
            x = group.random_scalar(rng)
            assert group.is_element(group.power_g(x))

    def test_exponent_reduced_mod_q(self, group):
        x = 12345
        assert group.power_g(x) == group.power_g(x + group.q)

    def test_mul_inverse(self, group, rng):
        a = group.power_g(group.random_scalar(rng))
        assert group.mul(a, group.inv(a)) == 1

    def test_is_element_rejects_outsiders(self, group):
        assert not group.is_element(0)
        assert not group.is_element(group.p)
        # An element of order 2 subgroup generally isn't in the q-subgroup.
        assert not group.is_element(group.p - 1) or group.cofactor % 2 == 0

    def test_hash_to_group_lands_in_subgroup(self, group):
        for i in range(10):
            h = group.hash_to_group("test", i.to_bytes(4, "big"))
            assert group.is_element(h)
            assert h != 1

    def test_hash_to_group_deterministic_and_tag_separated(self, group):
        a = group.hash_to_group("tag-a", b"x")
        assert a == group.hash_to_group("tag-a", b"x")
        assert a != group.hash_to_group("tag-b", b"x")

    def test_hash_to_scalar_range(self, group):
        for i in range(10):
            s = group.hash_to_scalar("t", i.to_bytes(2, "big"))
            assert 0 <= s < group.q

    def test_element_encoding_fixed_width(self, group):
        width = (group.p.bit_length() + 7) // 8
        assert len(group.element_to_bytes(1)) == width
        assert len(group.element_to_bytes(group.p - 1)) == width

    def test_decode_element_accepts_members(self, group, rng):
        element = group.power_g(group.random_scalar(rng))
        assert group.decode_element(element) == element

    def test_decode_element_rejects_non_members(self, group):
        # 0 and p are out of range; p-1 has order 2 (q is odd).
        for bad in (0, group.p, group.p + 1):
            with pytest.raises(ValueError):
                group.decode_element(bad)
        if not group.is_element(group.p - 1):
            with pytest.raises(ValueError):
                group.decode_element(group.p - 1)

    def test_element_round_trip_through_bytes(self, group, rng):
        element = group.power_g(group.random_scalar(rng))
        data = group.element_to_bytes(element)
        assert group.element_from_bytes(data) == element

    def test_element_from_bytes_enforces_subgroup(self, group):
        width = (group.p.bit_length() + 7) // 8
        with pytest.raises(ValueError):
            group.element_from_bytes((group.p - 1).to_bytes(width, "big"))
        with pytest.raises(ValueError):
            group.element_from_bytes(b"\x00" * (width + 1))  # wrong width

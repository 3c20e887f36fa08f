"""Vectorized gate-level batch vs the scalar sweep it must reproduce.

``run_batch`` promises exact integer toggle counts, identical
end-of-batch simulator state (values, per-net toggle counts, totals,
step counter) and per-vector energies equal to the scalar
``StepResult.energy`` to the last bit, on combinational netlists and
on feed-forward flip-flops.  Each test drives a scalar ``step_ints``
sweep and a batched run of the same vectors side by side.  The older
state checks compare ``total_energy`` with ``np.isclose``; the tests
under "bit-identical energies" compare it with ``==``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gatelevel import vectorized

from repro.gatelevel import (
    AND2,
    BUF,
    INV,
    XOR2,
    BatchResult,
    CellType,
    Dff,
    GateLevelSimulator,
    Netlist,
    bus_bits,
    int_to_bits,
    run_batch,
    synth_mux,
    synth_one_hot_decoder,
    synth_priority_arbiter,
)


def _mux_vectors(count, seed=0):
    """A deterministic address/data stimulus for ``synth_mux(4, 8)``."""
    vectors = []
    state = seed
    for index in range(count):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        vectors.append({"s": state & 3,
                        "d0": (state >> 2) & 0xFF,
                        "d1": (state >> 10) & 0xFF,
                        "d2": (state >> 18) & 0xFF,
                        "d3": (~state >> 3) & 0xFF})
    return vectors


def _scalar_sweep(simulator, vectors):
    """Apply *vectors* one at a time; return per-step toggle counts."""
    return [simulator.step_ints(**vector).toggles for vector in vectors]


def _assert_same_state(batch_sim, scalar_sim):
    assert batch_sim.total_toggles == scalar_sim.total_toggles
    assert batch_sim.steps == scalar_sim.steps
    for net in batch_sim.netlist.nets:
        peer = _net_by_name(scalar_sim.netlist, net.name)
        assert batch_sim.values[net] == scalar_sim.values[peer], net.name
        assert (batch_sim.toggle_counts[net]
                == scalar_sim.toggle_counts[peer]), net.name
    assert np.isclose(batch_sim.total_energy, scalar_sim.total_energy,
                      rtol=1e-12)


def _net_by_name(netlist, name):
    for net in netlist.nets:
        if net.name == name:
            return net
    raise KeyError(name)


class TestBatchEqualsScalar:
    def test_mux_sweep_matches_exactly(self):
        vectors = _mux_vectors(300)
        scalar_sim = GateLevelSimulator(synth_mux(4, 8))
        per_step = _scalar_sweep(scalar_sim, vectors)

        batch_sim = GateLevelSimulator(synth_mux(4, 8))
        result = run_batch(batch_sim, vectors)

        assert isinstance(result, BatchResult)
        assert result.steps == len(vectors)
        assert result.toggles == sum(per_step)
        assert result.per_vector_toggles.tolist() == per_step
        _assert_same_state(batch_sim, scalar_sim)

    def test_absent_bus_keeps_previous_value(self):
        # step_ints semantics: a bus missing from a vector holds its
        # last value — the batch must carry state the same way.
        vectors = [{"s": 1, "d0": 0xAA, "d1": 0x55,
                    "d2": 0, "d3": 0xFF},
                   {"d1": 0x54},           # s/d0/d2/d3 held
                   {"s": 3},
                   {}]                     # pure hold, zero toggles
        scalar_sim = GateLevelSimulator(synth_mux(4, 8))
        per_step = _scalar_sweep(scalar_sim, vectors)

        batch_sim = GateLevelSimulator(synth_mux(4, 8))
        result = run_batch(batch_sim, vectors)
        assert result.per_vector_toggles.tolist() == per_step
        _assert_same_state(batch_sim, scalar_sim)

    def test_interleaves_with_scalar_stepping(self):
        # End-of-batch state is committed state: scalar steps before
        # and after a batch see exactly what an all-scalar run sees.
        vectors = _mux_vectors(60, seed=7)
        scalar_sim = GateLevelSimulator(synth_mux(4, 8))
        _scalar_sweep(scalar_sim, vectors)

        mixed_sim = GateLevelSimulator(synth_mux(4, 8))
        _scalar_sweep(mixed_sim, vectors[:20])
        run_batch(mixed_sim, vectors[20:50])
        _scalar_sweep(mixed_sim, vectors[50:])
        _assert_same_state(mixed_sim, scalar_sim)

    def test_decoder_matches(self):
        vectors = [{"a": value % 16} for value in range(40)]
        scalar_sim = GateLevelSimulator(synth_one_hot_decoder(4))
        per_step = _scalar_sweep(scalar_sim, vectors)
        batch_sim = GateLevelSimulator(synth_one_hot_decoder(4))
        result = run_batch(batch_sim, vectors)
        assert result.per_vector_toggles.tolist() == per_step
        _assert_same_state(batch_sim, scalar_sim)

    def test_nonlibrary_cell_falls_back_to_frompyfunc(self):
        def majority(a, b, c):
            return 1 if (a + b + c) >= 2 else 0

        MAJ3 = CellType("MAJ3", 3, majority, 2e-15)

        def build():
            nl = Netlist("maj")
            a = nl.add_input("a")
            b = nl.add_input("b")
            c = nl.add_input("c")
            m = nl.add_cell(MAJ3, [a, b, c], output_name="m")
            nl.mark_output(nl.add_cell(AND2, [m, a], output_name="y"))
            return nl

        vectors = [{"a": i & 1, "b": (i >> 1) & 1, "c": (i >> 2) & 1}
                   for i in range(16)]
        scalar_sim = GateLevelSimulator(build())
        per_step = _scalar_sweep(scalar_sim, vectors)
        batch_sim = GateLevelSimulator(build())
        result = run_batch(batch_sim, vectors)
        assert result.per_vector_toggles.tolist() == per_step
        _assert_same_state(batch_sim, scalar_sim)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(
        st.fixed_dictionaries(
            {},
            optional={"s": st.integers(0, 3),
                      "d0": st.integers(0, 255),
                      "d1": st.integers(0, 255),
                      "d2": st.integers(0, 255),
                      "d3": st.integers(0, 255)}),
        min_size=1, max_size=40))
    def test_property_random_vectors(self, vectors):
        scalar_sim = GateLevelSimulator(synth_mux(4, 8))
        per_step = _scalar_sweep(scalar_sim, vectors)
        batch_sim = GateLevelSimulator(synth_mux(4, 8))
        result = run_batch(batch_sim, vectors)
        assert result.per_vector_toggles.tolist() == per_step
        _assert_same_state(batch_sim, scalar_sim)


class TestBatchEdges:
    def test_empty_batch_is_a_noop(self):
        sim = GateLevelSimulator(synth_mux(2, 4))
        result = run_batch(sim, [])
        assert (result.steps, result.toggles, result.energy) == (0, 0, 0.0)
        assert result.per_vector_toggles.shape == (0,)
        assert sim.steps == 0 and sim.total_toggles == 0

    def test_unknown_bus_name_raises(self):
        sim = GateLevelSimulator(synth_mux(2, 4))
        with pytest.raises(KeyError, match="no input bus"):
            run_batch(sim, [{"nonesuch": 1}])


# -- bit-identical energies -------------------------------------------------

def _build(kind, size):
    if kind == "decoder":
        return synth_one_hot_decoder(size)
    if kind == "mux":
        return synth_mux(size, 8)
    return synth_priority_arbiter(size)


@st.composite
def _stimulus(draw):
    """A block, a scalar warm-up and a batch of ``step_ints`` vectors.

    Every vector names its buses in one order (a subset may be held),
    which is the order the batch applies them in.
    """
    kind = draw(st.sampled_from(["decoder", "mux", "arbiter"]))
    size = draw(st.sampled_from([2, 3, 4, 8]))
    if kind == "decoder":
        bus = {"a": st.integers(0, 2 * size)}
    elif kind == "mux":
        bus = {"d%d" % i: st.integers(0, 255) for i in range(size)}
        bus["s"] = st.integers(0, size - 1)
    else:
        bus = {"req": st.integers(0, (1 << size) - 1)}
    vector = st.fixed_dictionaries({}, optional=bus)
    warm = draw(st.lists(vector, max_size=3))
    batch = draw(st.lists(vector, max_size=40))
    return kind, size, warm, batch


class TestBitIdenticalEnergy:
    @settings(max_examples=60, deadline=None)
    @given(_stimulus())
    def test_per_vector_energy_equals_scalar_steps(self, stimulus):
        kind, size, warm, batch = stimulus
        scalar_sim = GateLevelSimulator(_build(kind, size))
        batch_sim = GateLevelSimulator(_build(kind, size))
        for vector in warm:
            scalar_sim.step_ints(**vector)
            batch_sim.step_ints(**vector)
        steps = [scalar_sim.step_ints(**vector) for vector in batch]

        result = run_batch(batch_sim, batch)

        assert result.per_vector_energy.tolist() == [
            step.energy for step in steps]
        assert result.per_vector_toggles.tolist() == [
            step.toggles for step in steps]
        assert batch_sim.total_energy == scalar_sim.total_energy
        assert batch_sim.total_toggles == scalar_sim.total_toggles
        _assert_same_state(batch_sim, scalar_sim)
        outputs = scalar_sim.netlist.outputs
        assert result.outputs.tolist() == [
            [step.outputs[net] for net in outputs] for step in steps]

    def test_arbiter_charges_flops_and_clock(self):
        # The registered grant is a feed-forward flop stage: every
        # vector pays its clock pins, so even a held request costs.
        vectors = [{"req": value} for value in (0, 0, 5, 4, 4, 15, 0)]
        scalar_sim = GateLevelSimulator(synth_priority_arbiter(4))
        energies = [scalar_sim.step_ints(**vector).energy
                    for vector in vectors]
        batch_sim = GateLevelSimulator(synth_priority_arbiter(4))
        result = run_batch(batch_sim, vectors)
        assert result.per_vector_energy.tolist() == energies
        assert min(energies) > 0
        assert batch_sim.total_energy == scalar_sim.total_energy

    def test_batch_energy_is_the_sequential_sum(self):
        sim = GateLevelSimulator(synth_mux(4, 8))
        result = run_batch(sim, _mux_vectors(50))
        total = 0.0
        for energy in result.per_vector_energy.tolist():
            total += energy
        assert result.energy == total == sim.total_energy


class TestBusColumns:
    def test_column_form_equals_dict_form(self):
        vectors = _mux_vectors(120, seed=3)
        columns = {name: [vector[name] for vector in vectors]
                   for name in vectors[0]}
        dict_sim = GateLevelSimulator(synth_mux(4, 8))
        column_sim = GateLevelSimulator(synth_mux(4, 8))

        by_dict = run_batch(dict_sim, vectors)
        by_column = run_batch(column_sim, columns)

        for field in ("per_vector_energy", "per_vector_toggles",
                      "outputs"):
            assert (getattr(by_column, field).tolist()
                    == getattr(by_dict, field).tolist()), field
        assert by_column.energy == by_dict.energy
        assert column_sim.total_energy == dict_sim.total_energy
        _assert_same_state(column_sim, dict_sim)

    def test_omitted_bus_in_column_form_holds_its_value(self):
        # A bus the columns leave out keeps the value the simulator
        # holds, as a scalar sweep that never names it does.
        vectors = _mux_vectors(40, seed=11)
        columns = {name: [vector[name] for vector in vectors]
                   for name in ("s", "d0", "d2")}
        scalar_sim = GateLevelSimulator(synth_mux(4, 8))
        batch_sim = GateLevelSimulator(synth_mux(4, 8))
        for sim in (scalar_sim, batch_sim):
            sim.step_ints(d1=0x5A, d3=0xC3)
        steps = [scalar_sim.step_ints(s=s, d0=d0, d2=d2)
                 for s, d0, d2 in zip(*columns.values())]

        result = run_batch(batch_sim, columns)

        assert result.per_vector_energy.tolist() == [
            step.energy for step in steps]
        assert result.per_vector_toggles.tolist() == [
            step.toggles for step in steps]
        outputs = scalar_sim.netlist.outputs
        assert result.outputs.tolist() == [
            [step.outputs[net] for net in outputs] for step in steps]
        assert batch_sim.total_energy == scalar_sim.total_energy
        _assert_same_state(batch_sim, scalar_sim)

    def test_columns_must_share_one_length(self):
        sim = GateLevelSimulator(synth_mux(2, 4))
        with pytest.raises(ValueError, match="differ in length"):
            run_batch(sim, {"d0": [1, 2, 3], "d1": [1, 2], "s": [0, 1, 0]})

    def test_unknown_bus_in_columns_raises(self):
        sim = GateLevelSimulator(synth_mux(2, 4))
        with pytest.raises(KeyError, match="no input bus"):
            run_batch(sim, {"nonesuch": [1]})

    def test_64_bit_bus_decodes_exactly(self):
        def build():
            nl = Netlist("wide")
            bits = nl.add_input_bus("x", 64)
            nl.mark_output(nl.tree(XOR2, bits, output_name="parity"))
            for index in (0, 61, 62, 63):
                nl.mark_output(nl.add_cell(BUF, [bits[index]],
                                           output_name="y%d" % index))
            return nl

        values = [(1 << 64) - 1, 1 << 63, (1 << 62) | 5, 0,
                  (1 << 63) | (1 << 61), -1, (1 << 70) | 3]
        vectors = [{"x": value} for value in values]
        scalar_sim = GateLevelSimulator(build())
        steps = [scalar_sim.step_ints(**vector) for vector in vectors]
        batch_sim = GateLevelSimulator(build())
        result = run_batch(batch_sim, {"x": values})
        assert result.per_vector_energy.tolist() == [
            step.energy for step in steps]
        _assert_same_state(batch_sim, scalar_sim)
        assert bus_bits(values, 64).tolist() == [
            int_to_bits(value, 64) for value in values]

    @given(st.lists(st.integers(-(1 << 80), 1 << 80), max_size=20),
           st.integers(1, 100))
    def test_bus_bits_matches_int_to_bits(self, values, width):
        assert bus_bits(values, width).tolist() == [
            int_to_bits(value, width) for value in values]


    @pytest.mark.parametrize("width", [62, 63, 64, 65])
    def test_bus_bits_at_the_word_edge(self, width):
        # Both sides of the int64 word path: negative values, values
        # that fill or overflow the bus, and values beyond int64 that
        # must take the byte path.
        top = 1 << width
        values = [0, 1, -1, -2, top - 1, top, top + 1, -top, -top - 1,
                  (1 << 62) + 3, (1 << 63) - 1, 1 << 63, -(1 << 63),
                  -(1 << 63) - 1, (1 << 64) - 1, 1 << 64, -(1 << 64),
                  (1 << 90) | 0x5A5A, -(1 << 90) - 7]
        assert bus_bits(values, width).tolist() == [
            int_to_bits(value, width) for value in values]
        for value in values:  # one value alone picks its own path
            assert bus_bits([value], width).tolist() == [
                int_to_bits(value, width)]

    def test_bus_bits_takes_integer_arrays(self):
        values = np.array([0, 5, -3, (1 << 63) - 1], dtype=np.int64)
        assert bus_bits(values, 63).tolist() == [
            int_to_bits(int(value), 63) for value in values]
        words = np.array([(1 << 64) - 1, 1 << 63, 7], dtype=np.uint64)
        assert bus_bits(words, 40).tolist() == [
            int_to_bits(int(value), 40) for value in words]
        assert bus_bits(np.array([True, False]), 3).tolist() == [
            [1, 0, 0], [0, 0, 0]]


# -- order-safe charging ----------------------------------------------------
#
# ``run_batch`` adds each net's charge to every vector's energy one net
# after another, as the scalar step does.  Summing a block of nets with
# ``sum`` or ``add.reduce`` would pair the terms differently and round
# differently in some vectors; these fixed cases (single vectors, whose
# column NumPy reduces pairwise, and a batch whose charged nets span
# several blocks) catch that where the sampled property may not.

def _assert_batch_is_sweep(build, batch, warm=()):
    scalar_sim = GateLevelSimulator(build())
    batch_sim = GateLevelSimulator(build())
    for vector in warm:
        scalar_sim.step_ints(**vector)
        batch_sim.step_ints(**vector)
    steps = [scalar_sim.step_ints(**vector) for vector in batch]

    result = run_batch(batch_sim, batch)

    assert result.per_vector_energy.tolist() == [
        step.energy for step in steps]
    assert result.per_vector_toggles.tolist() == [
        step.toggles for step in steps]
    assert batch_sim.total_energy == scalar_sim.total_energy
    _assert_same_state(batch_sim, scalar_sim)
    return batch_sim


_BLOCKS = {
    "decoder-8": lambda: synth_one_hot_decoder(8),
    "decoder-32": lambda: synth_one_hot_decoder(32),
    "mux-2x8": lambda: synth_mux(2, 8),
    "mux-8x32": lambda: synth_mux(8, 32),
    "arbiter-4": lambda: synth_priority_arbiter(4),
    "arbiter-16": lambda: synth_priority_arbiter(16),
}


def _busy_vectors(kind, count, seed=0):
    """*count* vectors that flip many nets of block *kind* at once."""
    vectors = []
    state = seed
    for _ in range(count):
        state = (state * 6364136223846793005 + 1442695040888963407) \
            & ((1 << 64) - 1)
        if kind.startswith("decoder"):
            vectors.append({"a": state >> 59})
        elif kind.startswith("arbiter"):
            vectors.append({"req": state >> 48})
        else:
            legs, width = (2, 8) if kind == "mux-2x8" else (8, 32)
            vector = {"d%d" % leg: (state >> leg) & ((1 << width) - 1)
                      for leg in range(legs)}
            vector["s"] = (state >> 61) % legs
            vectors.append(vector)
    return vectors


class TestOrderedCharging:
    @pytest.mark.parametrize("kind", sorted(_BLOCKS))
    @pytest.mark.parametrize("count", [1, 2])
    def test_short_batches_equal_the_sweep(self, kind, count):
        for seed in range(6):
            _assert_batch_is_sweep(
                _BLOCKS[kind], _busy_vectors(kind, count, seed),
                warm=_busy_vectors(kind, 1, seed + 100))

    def test_arbiter_single_vectors_charge_flops_in_order(self):
        # Every requester pattern from a held state: grant flops flip
        # or hold, and the clock pins are charged after each Q.
        for held in (0, 1, 0x8000, 0xFFFF):
            for req in (0, 1, 2, 0x8001, 0x7FFF, 0xFFFF):
                _assert_batch_is_sweep(_BLOCKS["arbiter-16"],
                                       [{"req": req}],
                                       warm=[{"req": held}])

    def test_dict_batch_with_mixed_bus_orders(self):
        vectors = []
        for index, vector in enumerate(_busy_vectors("mux-8x32", 60, 5)):
            names = sorted(vector)
            if index % 3 == 1:
                names.reverse()
            elif index % 3 == 2:
                names = names[index % len(names):] \
                    + names[:index % len(names)]
            if index % 4 == 3:
                names = names[::2]      # the rest hold their values
            vectors.append({name: vector[name] for name in names})
        assert len({tuple(vector) for vector in vectors}) > 3
        _assert_batch_is_sweep(_BLOCKS["mux-8x32"], vectors)

    def test_long_mux_batch_spans_several_blocks(self):
        vectors = _busy_vectors("mux-8x32", 500, 9)
        sim = _assert_batch_is_sweep(_BLOCKS["mux-8x32"], vectors)
        flipped = sum(1 for count in sim.toggle_counts.values() if count)
        assert flipped > 3 * (vectorized._BLOCK_CELLS // len(vectors))
        columns = {name: [vector[name] for vector in vectors]
                   for name in vectors[0]}
        by_column = GateLevelSimulator(synth_mux(8, 32))
        result = run_batch(by_column, columns)
        assert result.energy == sim.total_energy == by_column.total_energy


class TestFlipFlopScope:
    def test_accepts_feed_forward_flop(self):
        def build():
            nl = Netlist("reg")
            d = nl.add_input("d")
            nl.mark_output(nl.add_dff(d, q_name="q"))
            return nl

        vectors = [{"d": bit} for bit in (1, 1, 0, 1, 0, 0)]
        scalar_sim = GateLevelSimulator(build())
        energies = [scalar_sim.step_ints(**vector).energy
                    for vector in vectors]
        batch_sim = GateLevelSimulator(build())
        result = run_batch(batch_sim, vectors)
        assert result.per_vector_energy.tolist() == energies
        _assert_same_state(batch_sim, scalar_sim)

    def test_rejects_flop_d_reading_its_own_q(self):
        nl = Netlist("toggle")
        nl.add_input("en")
        q = nl.net("q")
        nl.dffs.append(Dff(q, q))
        sim = GateLevelSimulator(nl)
        with pytest.raises(ValueError, match="flip-flop"):
            run_batch(sim, [{"en": 1}])

    def test_rejects_cell_reading_q(self):
        nl = Netlist("counter")
        en = nl.add_input("en")
        q = nl.add_dff(en, q_name="q")
        nl.mark_output(nl.add_cell(INV, [q], output_name="nq"))
        sim = GateLevelSimulator(nl)
        with pytest.raises(ValueError, match="flip-flop"):
            run_batch(sim, [{"en": 1}])

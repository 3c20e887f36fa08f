"""Tests for the paper's Activity class."""

from hypothesis import given, settings, strategies as st

from repro.kernel import Signal, Simulator, ns
from repro.power import Activity


def make_signals(widths=(8, 16, 1)):
    sim = Simulator()
    signals = [Signal(sim, "s%d" % index, width=width)
               for index, width in enumerate(widths)]
    return sim, signals


def drive_and_sample(sim, signals, activity, vectors):
    """Apply each vector (one value per signal) and sample after commit."""
    samples = []

    def driver():
        for vector in vectors:
            for signal, value in zip(signals, vector):
                signal.write(value)
            yield ns(1)
            samples.append(activity.sample())

    sim.add_thread(driver)
    sim.run()
    return samples


class TestSampling:
    def test_first_sample_measures_vs_initial(self):
        sim, signals = make_signals()
        activity = Activity("grp", signals)
        samples = drive_and_sample(sim, signals, activity,
                                   [(0xFF, 0x0, 1)])
        assert samples[0].total == 8 + 0 + 1

    def test_no_change_no_count(self):
        sim, signals = make_signals()
        activity = Activity("grp", signals)
        samples = drive_and_sample(sim, signals, activity,
                                   [(3, 3, 0), (3, 3, 0)])
        assert samples[1].total == 0

    def test_per_signal_hd(self):
        sim, signals = make_signals()
        activity = Activity("grp", signals)
        samples = drive_and_sample(sim, signals, activity,
                                   [(0b101, 0, 0)])
        assert samples[0].hd(signals[0]) == 2
        assert samples[0].hd(signals[1]) == 0

    def test_bit_change_count_accumulates(self):
        sim, signals = make_signals()
        activity = Activity("grp", signals)
        drive_and_sample(sim, signals, activity,
                         [(1, 0, 0), (3, 0, 0), (3, 1, 1)])
        # 1 + 1 + (1+1) bit changes
        assert activity.bit_change_count() == 4
        assert activity.samples_taken == 3

    def test_store_activity_rebaselines(self):
        sim, signals = make_signals()
        activity = Activity("grp", signals)

        def driver():
            signals[0].write(0xAA)
            yield ns(1)
            activity.store_activity()  # baseline now 0xAA, no counting
            yield ns(1)
            sample = activity.sample()
            assert sample.total == 0

        sim.add_thread(driver)
        sim.run()
        assert activity.bit_change_count() == 0


class TestStatistics:
    def test_transition_density(self):
        sim, signals = make_signals(widths=(4,))
        activity = Activity("grp", signals)
        drive_and_sample(sim, signals, activity, [(0xF,), (0x0,)])
        # 4 + 4 transitions over 2 samples of a 4-bit signal
        assert activity.transition_density(signals[0]) == 1.0

    def test_signal_probability(self):
        sim, signals = make_signals(widths=(2,))
        activity = Activity("grp", signals)
        drive_and_sample(sim, signals, activity, [(0b11,), (0b00,)])
        assert activity.signal_probability(signals[0]) == 0.5

    def test_summary_structure(self):
        sim, signals = make_signals()
        activity = Activity("grp", signals)
        drive_and_sample(sim, signals, activity, [(1, 2, 1)])
        summary = activity.summary()
        assert set(summary) == {s.name for s in signals}
        for stats in summary.values():
            assert {"transitions", "density", "probability"} <= \
                set(stats)


class TestProperties:
    @given(st.lists(st.tuples(st.integers(0, 255),
                              st.integers(0, 65535)),
                    min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_total_equals_sum_of_per_signal(self, vectors):
        sim, signals = make_signals(widths=(8, 16))
        activity = Activity("grp", signals)
        samples = drive_and_sample(sim, signals, activity, vectors)
        for sample in samples:
            assert sample.total == sum(sample.per_signal.values())

    @given(st.lists(st.integers(0, 255), min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_cumulative_count_equals_pairwise_hamming(self, values):
        from repro.power import hamming
        sim, signals = make_signals(widths=(8,))
        activity = Activity("grp", signals)
        drive_and_sample(sim, signals, activity,
                         [(value,) for value in values])
        expected = hamming(0, values[0], width=8) + sum(
            hamming(a, b, width=8)
            for a, b in zip(values, values[1:]))
        assert activity.bit_change_count() == expected

    @given(st.lists(st.tuples(st.integers(0, 255),
                              st.integers(-(2 ** 20), 2 ** 20)),
                    min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_record_batch_equals_recording_each_sample(self, vectors):
        # The compiled replay folds a batch of samples summarised per
        # signal; the result must equal recording them one by one.
        from repro.power import hamming
        _, signals = make_signals(widths=(8, 16))
        one_by_one = Activity("grp", signals)
        for vector in vectors:
            one_by_one.record(vector)

        batched = Activity("grp", signals)
        previous = [0, 0]
        transitions = [0, 0]
        ones = [0, 0]
        for vector in vectors:
            for index, (signal, value) in enumerate(zip(signals, vector)):
                mask = (1 << signal.width) - 1
                transitions[index] += hamming(previous[index], value,
                                              width=signal.width)
                ones[index] += bin(value & mask).count("1")
                previous[index] = value
        batched.record_batch(previous, transitions, ones, len(vectors))
        assert batched.state_dict() == one_by_one.state_dict()

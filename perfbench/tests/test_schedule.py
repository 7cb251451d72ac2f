"""The schedule is a pure function of the seed."""

from perfbench import schedule


def test_arrivals_repeat_for_a_seed_and_differ_across_seeds():
    assert schedule.arrivals(7, 8.0, 20.0) == schedule.arrivals(7, 8.0, 20.0)
    assert schedule.arrivals(7, 8.0, 20.0) != schedule.arrivals(8, 8.0, 20.0)


def test_every_seed_has_the_same_gaps_in_a_rotated_order():
    def gaps(due):
        return [round(b - a, 9) for a, b in zip([0.0] + due, due)]

    reference = gaps(schedule.arrivals(0, 8.0, 20.0))
    for seed in range(20):
        due = schedule.arrivals(seed, 8.0, 20.0)
        assert len(due) == 160
        assert due == sorted(due)
        assert 0.0 < due[0] and due[-1] <= 20.0
        turned = gaps(due)
        assert any(turned[k:] + turned[:k] == reference for k in range(160))
    short = sum(g < 0.040 for g in reference)
    assert short == round(160 * (1 - 2.718281828 ** (-8.0 * 0.040)))


def test_draw_order_repeats_for_a_seed_and_is_balanced():
    order = schedule.draw_order(3, 9, 160)
    assert order == schedule.draw_order(3, 9, 160)
    assert order != schedule.draw_order(4, 9, 160)
    counts = [order.count(t) for t in range(9)]
    assert max(counts) - min(counts) <= 1

from hypothesis import given, settings
from hypothesis import strategies as st

from wavedetect.metrics import compute_metrics


def test_worked_confusion_matrix():
    preds = [1] * 3 + [1] * 1 + [0] * 1 + [0] * 5
    labels = [1] * 3 + [0] * 1 + [1] * 1 + [0] * 5
    report = compute_metrics(preds, labels)
    assert (report.tp, report.fp, report.fn, report.tn) == (3, 1, 1, 5)
    assert report.accuracy == 0.8
    assert report.precision == 0.75
    assert report.recall == 0.75
    assert report.f1 == 0.75
    assert report.degenerate == ()


def test_perfect_predictions():
    report = compute_metrics([0, 1, 1, 0], [0, 1, 1, 0])
    assert (report.accuracy, report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0, 1.0)


def test_all_negative_predictions_flagged():
    report = compute_metrics([0, 0, 0], [0, 1, 1])
    assert report.precision == 0.0
    assert report.recall == 0.0
    assert report.f1 == 0.0
    assert set(report.degenerate) == {"precision", "f1"}


def test_no_positives_anywhere_flags_recall_too():
    report = compute_metrics([0, 0], [0, 0])
    assert set(report.degenerate) == {"precision", "recall", "f1"}



def test_row_and_table_render():
    report = compute_metrics([1, 0], [1, 1])
    row = report.as_row()
    assert row.startswith("1,0,0,1,")
    assert "recall" in report.format_table()


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=60))
@settings(max_examples=80, deadline=None)
def test_harmonic_identity_and_permutation_invariance(pairs):
    preds = [p for p, _ in pairs]
    labels = [y for _, y in pairs]
    report = compute_metrics(preds, labels)
    if report.precision + report.recall > 0:
        harmonic = 2 * report.precision * report.recall / (report.precision + report.recall)
        assert abs(report.f1 - harmonic) < 1e-12
    swapped = list(reversed(pairs))
    report2 = compute_metrics([p for p, _ in swapped], [y for _, y in swapped])
    assert report == report2

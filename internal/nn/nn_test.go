package nn

import "testing"

func TestTrainingLearns(t *testing.T) {
	train := SyntheticTask(2000, 16, 4, 1, 10, 1.6)
	val := SyntheticTask(500, 16, 4, 1, 20, 1.6)
	m := NewMLP(16, 32, 4, 3)
	before := m.Accuracy(val)
	for e := 0; e < 15; e++ {
		m.TrainEpoch(train, 64, 0.05)
	}
	after := m.Accuracy(val)
	if after < 0.6 {
		t.Errorf("accuracy %.3f after training, want > 0.6", after)
	}
	if after <= before {
		t.Errorf("training did not improve accuracy: %.3f -> %.3f", before, after)
	}
}

func TestLossDecreases(t *testing.T) {
	train := SyntheticTask(1000, 16, 4, 2, 11, 1.6)
	m := NewMLP(16, 24, 4, 5)
	first := m.TrainEpoch(train, 32, 0.05)
	var last float64
	for e := 0; e < 10; e++ {
		last = m.TrainEpoch(train, 32, 0.05)
	}
	if last >= first {
		t.Errorf("loss did not decrease: %.3f -> %.3f", first, last)
	}
}

func TestDeterministicTraining(t *testing.T) {
	train := SyntheticTask(500, 8, 3, 3, 12, 1.6)
	a, b := NewMLP(8, 16, 3, 7), NewMLP(8, 16, 3, 7)
	for e := 0; e < 3; e++ {
		la := a.TrainEpoch(train, 16, 0.05)
		lb := b.TrainEpoch(train, 16, 0.05)
		if la != lb {
			t.Fatalf("epoch %d loss diverged: %f vs %f", e, la, lb)
		}
	}
}

func TestSharedCentersAcrossSplits(t *testing.T) {
	// Same taskSeed, different sampleSeed: a model trained on one split
	// must transfer to the other (the Fig. 13d prerequisite).
	train := SyntheticTask(1500, 16, 4, 9, 1, 1.6)
	val := SyntheticTask(400, 16, 4, 9, 2, 1.6)
	m := NewMLP(16, 32, 4, 3)
	for e := 0; e < 12; e++ {
		m.TrainEpoch(train, 64, 0.05)
	}
	if acc := m.Accuracy(val); acc < 0.55 {
		t.Errorf("cross-split accuracy %.3f: centers not shared?", acc)
	}
}

func TestConvergenceCurveShape(t *testing.T) {
	train := SyntheticTask(1000, 16, 4, 4, 13, 1.6)
	val := SyntheticTask(300, 16, 4, 4, 14, 1.6)
	curve := ConvergenceCurve(train, val, 64, 8, 21)
	if len(curve) != 8 {
		t.Fatalf("want 8 epochs, got %d", len(curve))
	}
	if curve[len(curve)-1] <= curve[0] {
		t.Errorf("accuracy should improve over training: %.3f -> %.3f",
			curve[0], curve[len(curve)-1])
	}
}

func TestBatchSizeOneWorks(t *testing.T) {
	// Degenerate batch norm (variance 0) must not NaN the model.
	train := SyntheticTask(64, 8, 2, 5, 15, 1.6)
	m := NewMLP(8, 8, 2, 9)
	loss := m.TrainEpoch(train, 1, 0.01)
	if loss != loss { // NaN check
		t.Fatal("batch size 1 produced NaN loss")
	}
}

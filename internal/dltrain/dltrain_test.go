package dltrain

import "testing"

func TestFootprintMonotone(t *testing.T) {
	for _, n := range Networks() {
		prev := int64(0)
		for _, b := range []int{1, 2, 8, 32, 128} {
			f := Footprint(n, b)
			if f <= prev {
				t.Errorf("%s: footprint not monotone at batch %d", n.Name, b)
			}
			prev = f
		}
	}
}

func TestMaxBatchInverseOfFootprint(t *testing.T) {
	for _, n := range Networks() {
		b := MaxBatch(n, DeviceMemoryBytes)
		if b < 1 {
			t.Fatalf("%s: no batch fits 12 GB", n.Name)
		}
		if Footprint(n, b) > DeviceMemoryBytes {
			t.Errorf("%s: MaxBatch %d does not fit", n.Name, b)
		}
		if Footprint(n, b+1) <= DeviceMemoryBytes {
			t.Errorf("%s: MaxBatch %d not maximal", n.Name, b)
		}
	}
}

func TestThroughputKnee(t *testing.T) {
	n, _ := ByName("ResNet50")
	t8 := Throughput(n, 8)
	t64 := Throughput(n, 64)
	t512 := Throughput(n, 512)
	if t64 <= t8 {
		t.Error("throughput should grow 8 -> 64")
	}
	// Past the knee, gains flatten: 64->512 gain smaller than 8->64 gain.
	if t512/t64 >= t64/t8 {
		t.Errorf("plateau missing: %.2f vs %.2f", t512/t64, t64/t8)
	}
}

func TestBigLSTMVGGAreCapacityLimited(t *testing.T) {
	// §4.4: "both of these are unable to fit the mini-batch size of 64,
	// which [is] needed for good resource utilization" — in our model VGG16
	// caps at 64 and BigLSTM under 128 on 12 GB.
	vgg, _ := ByName("VGG16")
	lstm, _ := ByName("BigLSTM")
	if b := MaxBatch(vgg, DeviceMemoryBytes); b > 96 {
		t.Errorf("VGG16 max batch %d, want capacity-limited (<= 96)", b)
	}
	if b := MaxBatch(lstm, DeviceMemoryBytes); b > 128 {
		t.Errorf("BigLSTM max batch %d, want capacity-limited (<= 128)", b)
	}
}

func TestClampBatch(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 5: 4, 100: 96, 513: 512, 1 << 20: 512}
	for in, want := range cases {
		if got := clampBatch(in); got != want {
			t.Errorf("clampBatch(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("VGG16"); !ok {
		t.Error("VGG16 missing")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("unknown network should not resolve")
	}
}

func TestIterationSecondsPositive(t *testing.T) {
	for _, n := range Networks() {
		if s := IterationSeconds(n, 32); s <= 0 {
			t.Errorf("%s: non-positive iteration time", n.Name)
		}
	}
}

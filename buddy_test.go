package buddy

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"buddy/internal/exp"
	"buddy/internal/gen"
)

func TestPublicAPIFlow(t *testing.T) {
	// End-to-end through the facade: profile -> annotate -> load -> verify.
	bench, err := WorkloadByName("352.ep")
	if err != nil {
		t.Fatal(err)
	}
	snaps := GenerateRun(bench, 16384)
	prof := Profile(snaps, NewBPC(), FinalDesign())
	if prof.CompressionRatio < 1.5 {
		t.Errorf("352.ep should compress well, got %.2fx", prof.CompressionRatio)
	}

	data := snaps[0]
	dev := New(WithDeviceBytes(int64(data.TotalBytes())))
	allocs, err := LoadSnapshot(dev, data, prof.Targets())
	if err != nil {
		t.Fatal(err)
	}
	if len(allocs) != len(data.Allocations) {
		t.Fatalf("want %d allocations, got %d", len(data.Allocations), len(allocs))
	}
	got := make([]byte, EntryBytes)
	for ai, a := range allocs {
		src := data.Allocations[ai]
		for i := 0; i < a.EntryCount; i += 37 {
			if err := a.ReadEntries(i, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, src.Entry(i)) {
				t.Fatalf("%s entry %d mismatch", a.Name, i)
			}
		}
	}
}

func TestCodecsRegistry(t *testing.T) {
	cs := Codecs()
	if len(cs) != 6 {
		t.Fatalf("want 6 codecs, got %d", len(cs))
	}
	names := map[string]bool{}
	for _, c := range cs {
		names[c.Name()] = true
	}
	for _, want := range []string{"bpc", "bdi", "fpc", "fvc", "cpack", "zero"} {
		if !names[want] {
			t.Errorf("missing codec %q", want)
		}
		c, err := CodecByName(want)
		if err != nil || c.Name() != want {
			t.Errorf("CodecByName(%q) = %v, %v", want, c, err)
		}
	}
	if _, err := CodecByName("no-such"); err == nil {
		t.Error("CodecByName should reject unknown names")
	}
}

func TestRunExperimentQuick(t *testing.T) {
	// Every fast experiment renders without error through the experiment
	// table's runner; the heavier ones are covered by their own tests/benches.
	sc := exp.Quick
	for _, name := range []string{"tab1", "tab2", "fig8", "fig13a", "fig13b", "fig13c"} {
		var sb strings.Builder
		if err := exp.Run(&sb, name, sc); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if sb.Len() == 0 {
			t.Errorf("%s: empty output", name)
		}
	}
	if err := exp.Run(&strings.Builder{}, "no-such", sc); err == nil {
		t.Error("unknown experiment should error")
	}
}

// TestModelExperimentsPinned compares the experiments that read only the
// fixed model constants (Tab. 2, the Fig. 12 Unified Memory testbed, the
// §4.4 DL training model) byte for byte with their quick-scale output in
// testdata/pinned: a change to how a model value is held must not change
// what any figure prints.
func TestModelExperimentsPinned(t *testing.T) {
	checkPinned(t, "tab2", "fig12", "fig13a", "fig13b", "fig13c")
}

// TestSynthesisExperimentsPinned does the same for the deterministic
// experiments over synthesized snapshots that run in well under a second
// at quick scale: a change to how an experiment is parameterized, run or
// printed must not change its output.
func TestSynthesisExperimentsPinned(t *testing.T) {
	checkPinned(t, "tab1", "fig3", "sparse", "fig6", "fig7", "fig8", "fig9", "reprofile")
}

// checkPinned runs each named experiment at exp.Quick and compares its
// output with testdata/pinned/<name>.txt.
func checkPinned(t *testing.T, names ...string) {
	t.Helper()
	for _, name := range names {
		want, err := os.ReadFile(filepath.Join("testdata", "pinned", name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := exp.Run(&got, name, exp.Quick); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s output changed:\n got:\n%s\nwant:\n%s", name, got.Bytes(), want)
		}
	}
}

// TestExperimentsListMatchesRunner: an unknown name's error lists exactly
// the names the runner accepts, in table order.
func TestExperimentsListMatchesRunner(t *testing.T) {
	var names []string
	for _, e := range exp.Experiments() {
		names = append(names, e.Name)
	}
	err := exp.Run(io.Discard, "no-such", exp.Quick)
	want := `exp: unknown experiment "no-such" (have ` + strings.Join(names, ", ") + ")"
	if err == nil || err.Error() != want {
		t.Errorf("unknown experiment error = %v, want %s", err, want)
	}
}

func TestLifecycleFacade(t *testing.T) {
	// The long-running-serving flow through the public surface: load under
	// profiled targets, drift, plan, gate on the horizon, apply live, free.
	bench, err := WorkloadByName("355.seismic")
	if err != nil {
		t.Fatal(err)
	}
	snaps := GenerateRun(bench, 16384)
	first, last := snaps[0], snaps[len(snaps)-1]
	prof := Profile([]*Snapshot{first}, NewBPC(), FinalDesign())
	targets := prof.Targets()

	dev := New(WithDeviceBytes(2 * int64(first.TotalBytes())))
	allocs, err := LoadSnapshot(dev, first, targets)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range allocs {
		src := last.Find(a.Name)
		if src == nil {
			t.Fatalf("allocation %s missing from the late snapshot", a.Name)
		}
		if _, err := a.WriteAt(src.Data, 0); err != nil {
			t.Fatal(err)
		}
	}
	plan := PlanReprofile(dev.Allocations(), FinalDesign())
	if len(plan.Decisions) == 0 {
		t.Fatal("drifting workload should produce reprofile decisions")
	}
	st, err := dev.ApplyReprofile(plan)
	if err != nil {
		t.Fatal(err)
	}
	if st.Applied != len(plan.Decisions) {
		t.Errorf("applied %d of %d decisions (%d skipped)", st.Applied, len(plan.Decisions), st.Skipped)
	}
	// Contents survive the live migration; Free returns every byte.
	for _, a := range allocs {
		got := make([]byte, a.Size())
		if _, err := a.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, last.Find(a.Name).Data) {
			t.Fatalf("%s: contents corrupted by ApplyReprofile", a.Name)
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if du, bu := dev.DeviceUsed(), dev.BuddyUsed(); du != 0 || bu != 0 {
		t.Errorf("free-all left device=%d buddy=%d reserved", du, bu)
	}
	if _, err := allocs[0].ReadAt(make([]byte, 8), 0); !errors.Is(err, ErrFreed) {
		t.Errorf("I/O after Close = %v, want ErrFreed", err)
	}
}

func TestCapacityStory(t *testing.T) {
	// The paper's pitch: 24 GB of data on a 12 GB GPU at 2x. Shrunk: 2 MiB
	// of data on a 1 MiB device.
	dev := New(WithDeviceBytes(1 << 20))
	a, err := dev.Malloc("big", 2<<20, Target2x)
	if err != nil {
		t.Fatalf("2x annotation should double capacity: %v", err)
	}
	entry := make([]byte, EntryBytes)
	gen.Noisy64{NoiseBits: 8, HiStep: 1}.Fill(entry, gen.NewRNG(3, 1))
	if err := a.WriteEntries(a.EntryCount-1, entry); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, EntryBytes)
	if err := a.ReadEntries(a.EntryCount-1, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(entry, got) {
		t.Error("round-trip mismatch at the far end of the oversubscribed allocation")
	}
}

package compress

import (
	"testing"

	"buddy/internal/gen"
)

// TestTranspose32 pins the orientation of transpose32, under each kernel,
// against the naive definition: bit i of output row b == bit b of input row
// i, with row 2m in the low lane of word m and row 2m+1 in the high lane.
func TestTranspose32(t *testing.T) {
	eachTranspose(t, transpose32Orientation)
}

func transpose32Orientation(t *testing.T) {
	var orig [32]uint32
	var a, keep [entryWordCount]uint64
	r := gen.NewRNG(99, 1)
	for i := range orig {
		orig[i] = uint32(r.Uint64())
		a[i>>1] |= uint64(orig[i]) << (uint(i&1) * 32)
	}
	keep = a
	transpose32(&a)
	for b := 0; b < 32; b++ {
		var want uint32
		for i := 0; i < 32; i++ {
			want |= orig[i] >> uint(b) & 1 << uint(i)
		}
		if got := uint32(a[b>>1] >> (uint(b&1) * 32)); got != want {
			t.Fatalf("plane %d: got %#x, want %#x", b, got, want)
		}
	}
	// Involution: transposing twice restores the input.
	transpose32(&a)
	if a != keep {
		t.Fatal("transpose32 is not an involution")
	}
}

// eachTranspose runs f as one subtest per transpose kernel, named after it,
// with transpose32 dispatching to that kernel; a kernel this CPU cannot run
// is skipped with the reason logged.
func eachTranspose(t *testing.T, f func(t *testing.T)) {
	for _, k := range transposeKernels() {
		t.Run(k, func(t *testing.T) {
			if !selectTranspose(t, k) {
				t.SkipNow()
			}
			f(t)
		})
	}
}

// TestEntryAllZero covers the one-probe zero test on both classes.
func TestEntryAllZero(t *testing.T) {
	entry := make([]byte, EntryBytes)
	if !EntryAllZero(entry) {
		t.Fatal("all-zero entry reported non-zero")
	}
	for i := 0; i < EntryBytes; i++ {
		entry[i] = 1
		if EntryAllZero(entry) {
			t.Fatalf("byte %d set but entry reported zero", i)
		}
		entry[i] = 0
	}
}

// TestAppendZeroEntryMatchesCodecs: the precomputed zero-entry table must be
// frame-identical to a live encode for every registered codec.
func TestAppendZeroEntryMatchesCodecs(t *testing.T) {
	zero := make([]byte, EntryBytes)
	for _, c := range Registry() {
		wantStream, wantBits := c.AppendCompressed(nil, zero)
		gotStream, gotBits := AppendZeroEntry(nil, c)
		if gotBits != wantBits {
			t.Errorf("%s: AppendZeroEntry bits = %d, encode = %d", c.Name(), gotBits, wantBits)
		}
		if string(gotStream) != string(wantStream) {
			t.Errorf("%s: AppendZeroEntry stream differs from live encode", c.Name())
		}
		if zb := ZeroEntryBits(c); zb != wantBits {
			t.Errorf("%s: ZeroEntryBits = %d, encode = %d", c.Name(), zb, wantBits)
		}
		// The prefix-preserving append contract.
		prefixed, _ := AppendZeroEntry([]byte{0xAA}, c)
		if prefixed[0] != 0xAA || string(prefixed[1:]) != string(wantStream) {
			t.Errorf("%s: AppendZeroEntry clobbers existing dst bytes", c.Name())
		}
	}
}

package workloads

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"buddy/internal/memory"
)

// synthesisHash hashes every region GenerateRun and GenerateSnapshot
// produce for all of Tab. 1 at the floor size (64 pages a snapshot): each
// run's ten dumps, then the last dump on its own, whose Dynamic regions
// take the highest snapshot seed.
func synthesisHash() [sha256.Size]byte {
	h := sha256.New()
	write := func(s *memory.Snapshot) {
		for _, a := range s.Allocations {
			fmt.Fprintf(h, "%d/%s/%d:", s.Index, a.Name, len(a.Data))
			h.Write(a.Data)
		}
	}
	for _, b := range Table1() {
		for _, s := range GenerateRun(b, 1<<20) {
			write(s)
		}
		write(GenerateSnapshot(b, Snapshots-1, 1<<20))
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// TestSynthesisFanOutByteIdentical: the fan-out changes no byte. Output at
// GOMAXPROCS 4 equals GOMAXPROCS 1 (no helpers, the fills run in order),
// and two concurrent callers, as the profile harness runs, each equal it
// too.
func TestSynthesisFanOutByteIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial := synthesisHash()
	runtime.GOMAXPROCS(4)
	if got := synthesisHash(); got != serial {
		t.Fatalf("GOMAXPROCS 4 hash %x, serial %x", got, serial)
	}
	var both [2][sha256.Size]byte
	var wg sync.WaitGroup
	for c := range both {
		wg.Add(1)
		go func() {
			defer wg.Done()
			both[c] = synthesisHash()
		}()
	}
	wg.Wait()
	for c, got := range both {
		if got != serial {
			t.Errorf("concurrent caller %d hash %x, serial %x", c, got, serial)
		}
	}
}

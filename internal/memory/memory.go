// Package memory models the GPU memory objects the paper reasons about:
// 128 B memory-entries (the compression granularity), 32 B sectors (the
// DRAM access granularity), 8 KB pages (the unit of the Fig. 6 heat-maps and
// of the page-table metadata), cudaMalloc-style allocations (the granularity
// of target-compression-ratio annotation, §3.4), and whole-memory snapshots
// (the paper's periodic memory dumps, §3.1). Compressibility statistics over
// these objects (ratios, sector histograms) live in internal/analysis,
// which indexes a snapshot with exactly one encode per entry.
package memory

import (
	"fmt"

	"buddy/internal/compress"
)

// Layout constants from the paper.
const (
	EntryBytes     = compress.EntryBytes // 128 B memory-entry
	SectorBytes    = compress.SectorBytes
	PageBytes      = 8 << 10                // 8 KB pages (Fig. 6)
	EntriesPerPage = PageBytes / EntryBytes // 64
)

// An Allocation is one cudaMalloc-style region, the granularity at which the
// paper assigns per-allocation target compression ratios. Data holds the
// (possibly scaled-down) synthesized contents.
type Allocation struct {
	// Name identifies the allocation within its benchmark (e.g. "grid",
	// "weights_conv3").
	Name string
	// Data is the current contents; its length is a multiple of EntryBytes.
	Data []byte
}

// Entries returns the number of 128 B memory-entries in the allocation.
func (a *Allocation) Entries() int { return len(a.Data) / EntryBytes }

// Entry returns the i-th 128 B memory-entry.
func (a *Allocation) Entry(i int) []byte {
	return a.Data[i*EntryBytes : (i+1)*EntryBytes]
}

// Pages returns the number of 8 KB pages (rounded up).
func (a *Allocation) Pages() int {
	return (len(a.Data) + PageBytes - 1) / PageBytes
}

// A Snapshot is one memory dump: the set of live allocations at a point in
// the workload's execution. The paper takes ten snapshots per benchmark at
// kernel boundaries (§3.1). A dump is read-only to its consumers: the
// snapshots of one run may hold the same *Allocation where a region did not
// change between dumps (workloads.GenerateRun), and analysis.BuildRun relies
// on an allocation's bytes staying what they were when it was indexed.
type Snapshot struct {
	// Index is the snapshot's position in the run (0..9 for the paper's
	// ten equally distributed dumps).
	Index int
	// Allocations lists the live regions in device-address order.
	Allocations []*Allocation
}

// TotalBytes returns the footprint of the snapshot.
func (s *Snapshot) TotalBytes() int {
	var n int
	for _, a := range s.Allocations {
		n += len(a.Data)
	}
	return n
}

// TotalEntries returns the number of memory-entries across allocations.
func (s *Snapshot) TotalEntries() int { return s.TotalBytes() / EntryBytes }

// Find returns the allocation with the given name, or nil.
func (s *Snapshot) Find(name string) *Allocation {
	for _, a := range s.Allocations {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// NewAllocation creates an allocation of size bytes (rounded up to a whole
// number of entries) with zeroed contents.
func NewAllocation(name string, size int) *Allocation {
	if size <= 0 {
		size = EntryBytes
	}
	entries := (size + EntryBytes - 1) / EntryBytes
	return &Allocation{Name: name, Data: make([]byte, entries*EntryBytes)}
}

// Validate checks structural invariants and returns a descriptive error for
// the first violation: allocation data must be entry-aligned and names
// unique within a snapshot.
func (s *Snapshot) Validate() error {
	seen := make(map[string]bool, len(s.Allocations))
	for _, a := range s.Allocations {
		if len(a.Data)%EntryBytes != 0 {
			return fmt.Errorf("memory: allocation %q size %d not entry-aligned", a.Name, len(a.Data))
		}
		if seen[a.Name] {
			return fmt.Errorf("memory: duplicate allocation name %q", a.Name)
		}
		seen[a.Name] = true
	}
	return nil
}

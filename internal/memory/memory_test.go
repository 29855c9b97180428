package memory

import (
	"testing"
)

func TestNewAllocationAlignment(t *testing.T) {
	a := NewAllocation("x", 100) // rounds up to one entry
	if len(a.Data) != EntryBytes {
		t.Errorf("size %d, want %d", len(a.Data), EntryBytes)
	}
	if a.Entries() != 1 {
		t.Errorf("entries=%d, want 1", a.Entries())
	}
	b := NewAllocation("y", PageBytes+1)
	if b.Entries() != EntriesPerPage+1 {
		t.Errorf("entries=%d, want %d", b.Entries(), EntriesPerPage+1)
	}
}

func TestSnapshotValidate(t *testing.T) {
	s := &Snapshot{Allocations: []*Allocation{
		NewAllocation("a", 256), NewAllocation("b", 256),
	}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	s.Allocations = append(s.Allocations, NewAllocation("a", 128))
	if err := s.Validate(); err == nil {
		t.Error("duplicate names should fail validation")
	}
	bad := &Snapshot{Allocations: []*Allocation{{Name: "z", Data: make([]byte, 100)}}}
	if err := bad.Validate(); err == nil {
		t.Error("unaligned allocation should fail validation")
	}
}

func TestFindAndTotals(t *testing.T) {
	s := &Snapshot{Allocations: []*Allocation{
		NewAllocation("a", 1024), NewAllocation("b", 2048),
	}}
	if s.Find("b") == nil || s.Find("c") != nil {
		t.Error("Find broken")
	}
	if s.TotalBytes() != 3072 {
		t.Errorf("total: %d bytes, want 3072", s.TotalBytes())
	}
}

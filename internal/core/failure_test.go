package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"buddy/internal/compress"
)

// TestFailBlocksDataPath pins the failure model: after Fail, every
// data-path operation — entry I/O, batch spans, byte-addressed I/O and
// Malloc — fails with an error wrapping ErrDeviceFailed, and nothing is
// accounted for the refused operations.
func TestFailBlocksDataPath(t *testing.T) {
	d := NewDevice(Config{DeviceBytes: 1 << 20})
	a, err := d.Malloc("x", 64*EntryBytes, Target2x)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 4*EntryBytes)
	fillPattern(data, 7)
	if _, err := a.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if d.failed.Load() {
		t.Fatal("fresh device reports failed")
	}
	d.Fail()
	if !d.failed.Load() {
		t.Fatal("Fail did not mark the device")
	}
	before := d.Traffic()
	entry := make([]byte, EntryBytes)
	checks := []struct {
		name string
		err  error
	}{
		{"WriteEntries/one", a.WriteEntries(0, entry)},
		{"ReadEntries/one", a.ReadEntries(0, entry)},
		{"WriteEntries", a.WriteEntries(0, data)},
		{"ReadEntries", a.ReadEntries(0, data)},
	}
	for _, c := range checks {
		if !errors.Is(c.err, ErrDeviceFailed) {
			t.Errorf("%s on failed device: %v, want ErrDeviceFailed", c.name, c.err)
		}
	}
	if _, err := a.WriteAt(data, 0); !errors.Is(err, ErrDeviceFailed) {
		t.Errorf("WriteAt on failed device: %v", err)
	}
	if _, err := a.ReadAt(data, 0); !errors.Is(err, ErrDeviceFailed) {
		t.Errorf("ReadAt on failed device: %v", err)
	}
	if _, err := d.Malloc("y", EntryBytes, Target1x); !errors.Is(err, ErrDeviceFailed) {
		t.Errorf("Malloc on failed device: %v", err)
	}
	if after := d.Traffic(); after != before {
		t.Errorf("refused operations were accounted: before %+v after %+v", before, after)
	}
}

// TestRecoverRebuildsFromBuddy pins the recovery model: Recover streams
// every written entry's stored bytes back over the buddy link, re-stores
// the device-resident sectors, reopens the data path, and loses nothing.
func TestRecoverRebuildsFromBuddy(t *testing.T) {
	d := NewDevice(Config{DeviceBytes: 1 << 20})
	const entries = 32
	a, err := d.Malloc("x", entries*EntryBytes, Target2x)
	if err != nil {
		t.Fatal(err)
	}
	// Leave a tail of never-written entries: they need no rebuild.
	const written = 20
	want := make([]byte, written*EntryBytes)
	fillPattern(want, 3)
	if _, err := a.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	d.Fail()
	d.ResetTraffic()
	n, rebuilt, err := d.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != written {
		t.Errorf("rebuilt %d entries, want %d", n, written)
	}
	if rebuilt <= 0 {
		t.Errorf("rebuilt bytes = %d, want > 0", rebuilt)
	}
	tr := d.Traffic()
	if tr.BuddyReadBytes != uint64(rebuilt) {
		t.Errorf("buddy link read %d bytes, want the rebuilt footprint %d", tr.BuddyReadBytes, rebuilt)
	}
	if tr.DeviceWriteBytes == 0 {
		t.Error("rebuild re-stored nothing device-side")
	}
	if d.failed.Load() {
		t.Fatal("device still failed after Recover")
	}
	got := make([]byte, len(want))
	if _, err := a.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("data lost across fail/recover")
	}
	// Recovering a healthy device is a programming error.
	if _, _, err := d.Recover(); err == nil {
		t.Fatal("Recover on a healthy device succeeded")
	}
}

// TestExportImportStreamHandoff pins the no-decode migration primitive:
// entries exported from one device import verbatim into a codec-matched
// allocation on another, data survives, never-written entries are skipped,
// and both devices account identical MigrationBytes.
func TestExportImportStreamHandoff(t *testing.T) {
	src := NewDevice(Config{DeviceBytes: 1 << 20})
	dst := NewDevice(Config{DeviceBytes: 1 << 20})
	if !src.SameCodecAs(dst) {
		t.Fatal("identically configured devices disagree on codec")
	}
	const entries = 16
	sa, err := src.Malloc("m", entries*EntryBytes, Target2x)
	if err != nil {
		t.Fatal(err)
	}
	da, err := dst.Malloc("m", entries*EntryBytes, Target2x)
	if err != nil {
		t.Fatal(err)
	}
	const written = 10
	want := make([]byte, written*EntryBytes)
	fillPattern(want, 9)
	if _, err := sa.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	src.ResetTraffic()
	dst.ResetTraffic()
	buf := make([]byte, 0, MaxStreamBytes)
	moved := 0
	for i := 0; i < entries; i++ {
		stream, sectors, ok, err := sa.ExportEntry(i, buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if i < written {
				t.Fatalf("entry %d written but exported as empty", i)
			}
			continue
		}
		if err := da.ImportEntry(i, stream, sectors); err != nil {
			t.Fatal(err)
		}
		moved++
	}
	if moved != written {
		t.Fatalf("moved %d entries, want %d", moved, written)
	}
	st, dt := src.Traffic(), dst.Traffic()
	if st.MigrationBytes == 0 || st.MigrationBytes != dt.MigrationBytes {
		t.Errorf("MigrationBytes src=%d dst=%d, want equal and nonzero",
			st.MigrationBytes, dt.MigrationBytes)
	}
	// Export reads; import writes. Entry-level access counters stay
	// untouched — migration is not an access.
	if st.Reads != 0 || st.Writes != 0 || dt.Reads != 0 || dt.Writes != 0 {
		t.Errorf("migration bumped access counters: src %+v dst %+v", st, dt)
	}
	got := make([]byte, len(want))
	if _, err := da.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("stream handoff corrupted data")
	}
}

// TestImportEntryValidation covers the import guards: sector range, empty
// streams, index range, freed allocations and failed devices.
func TestImportEntryValidation(t *testing.T) {
	d := NewDevice(Config{DeviceBytes: 1 << 20})
	a, err := d.Malloc("v", 4*EntryBytes, Target2x)
	if err != nil {
		t.Fatal(err)
	}
	stream := []byte{1, 2, 3}
	if err := a.ImportEntry(0, stream, compress.SectorsPerEntry+1); err == nil ||
		!strings.Contains(err.Error(), "sector count") {
		t.Errorf("oversized sector count: %v", err)
	}
	if err := a.ImportEntry(0, nil, 1); err == nil {
		t.Error("empty stream import succeeded")
	}
	if err := a.ImportEntry(99, stream, 1); err == nil {
		t.Error("out-of-range import succeeded")
	}
	if _, _, _, err := a.ExportEntry(-1, nil); err == nil {
		t.Error("out-of-range export succeeded")
	}
	d.Fail()
	if err := a.ImportEntry(0, stream, 1); !errors.Is(err, ErrDeviceFailed) {
		t.Errorf("import into failed device: %v", err)
	}
	// Export still works on a failed device: it reads the carve-out
	// mirror's surviving copy.
	if _, _, _, err := a.ExportEntry(0, nil); err != nil {
		t.Errorf("export off failed device: %v", err)
	}
	if _, _, err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.ImportEntry(0, stream, 1); !errors.Is(err, ErrFreed) {
		t.Errorf("import into freed allocation: %v", err)
	}
	if _, _, _, err := a.ExportEntry(0, nil); !errors.Is(err, ErrFreed) {
		t.Errorf("export of freed allocation: %v", err)
	}
}

// Quickstart: build a Buddy Compression device with functional options,
// write byte-addressed data through the real BPC pipeline (no 128 B entry
// bookkeeping), read it back, Memcpy between allocations, and inspect where
// the bytes went (device slab vs. overflow tier).
package main

import (
	"bytes"
	"fmt"
	"log"

	"buddy"
	"buddy/internal/gen"
)

func main() {
	// A small GPU with 1 MiB of device memory and the paper's defaults
	// (BPC compression, 3x buddy carve-out, sliced metadata cache).
	dev := buddy.New(buddy.WithDeviceBytes(1 << 20))

	// Annotate the allocation with a 2x target ratio: 512 KiB of data
	// reserves only 256 KiB of device memory; each 128 B entry gets two
	// 32 B device sectors and a fixed two-sector slot in the carve-out.
	alloc, err := dev.Malloc("tensor", 512<<10, buddy.Target2x)
	if err != nil {
		log.Fatal(err)
	}
	defer alloc.Close()
	fmt.Printf("allocated %d bytes at target %s: device %d KiB, carve-out %d KiB\n",
		alloc.Size(), alloc.Target(), dev.DeviceUsed()>>10, dev.BuddyUsed()>>10)

	// Write three kinds of data: highly compressible, half-compressible,
	// and incompressible. Only the last overflows to buddy memory. The
	// writes are plain byte-addressed I/O — io.WriterAt.
	chunk := make([]byte, 128)
	r := gen.NewRNG(42, 1)
	kinds := []struct {
		name string
		g    gen.Generator
	}{
		{"smooth ramp (fits easily)", gen.Ramp{Step: 4}},
		{"fp64 field (exactly 2x)", gen.Noisy64{NoiseBits: 8, HiStep: 1}},
		{"random bytes (overflows)", gen.Random{}},
	}
	for i, k := range kinds {
		k.g.Fill(chunk, r)
		before := dev.Traffic()
		if _, err := alloc.WriteAt(chunk, int64(i)*128); err != nil {
			log.Fatal(err)
		}
		after := dev.Traffic()
		fmt.Printf("  write %-28s -> device %3d B, buddy %3d B\n",
			k.name,
			after.DeviceWriteBytes-before.DeviceWriteBytes,
			after.BuddyWriteBytes-before.BuddyWriteBytes)
	}

	// Read back and verify: compression is bit-exact end to end, even for
	// an unaligned window straddling all three regions.
	want := make([]byte, 3*128)
	r2 := gen.NewRNG(42, 1)
	for i, k := range kinds {
		k.g.Fill(want[i*128:(i+1)*128], r2)
	}
	got := make([]byte, 200)
	if _, err := alloc.ReadAt(got, 100); err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(got, want[100:300]) {
		log.Fatal("unaligned read-back mismatch")
	}
	fmt.Println("unaligned 200 B window at offset 100 read back bit-exact")

	// Memcpy clones the region through both pipelines, like cudaMemcpy.
	clone, err := dev.Malloc("clone", alloc.Size(), buddy.Target2x)
	if err != nil {
		log.Fatal(err)
	}
	defer clone.Close()
	if _, err := buddy.Memcpy(clone, alloc, alloc.Size()); err != nil {
		log.Fatal(err)
	}
	if _, err := clone.ReadAt(got, 100); err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(got, want[100:300]) {
		log.Fatal("Memcpy clone mismatch")
	}
	fmt.Println("Memcpy clone verified")

	// The headline design property (§3.3): rewriting data with different
	// compressibility never moves it.
	devAddr, budAddr := alloc.DeviceAddress(1), alloc.BuddyAddress(1)
	gen.Random{}.Fill(chunk, r)
	if _, err := alloc.WriteAt(chunk, 128); err != nil {
		log.Fatal(err)
	}
	if alloc.DeviceAddress(1) != devAddr || alloc.BuddyAddress(1) != budAddr {
		log.Fatal("addresses moved!")
	}
	fmt.Println("compressibility changed from 2 to 4 sectors: addresses unchanged, no data movement")

	// The device is two storage tiers: its own slab, metered by Traffic's
	// device bytes, and the overflow tier, which reports its own traffic.
	pt, overflow := dev.Traffic(), dev.Overflow()
	ot := overflow.Traffic()
	fmt.Printf("tier %-14s: %6d B written, %6d B read\n", "device-slab", pt.DeviceWriteBytes, pt.DeviceReadBytes)
	fmt.Printf("tier %-14s: %6d B written, %6d B read\n", overflow.Name(), ot.WrittenBytes, ot.ReadBytes)
}

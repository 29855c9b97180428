// Selfheal: the pool as a self-healing fleet. A failure injector kills
// one shard's device tier mid-serve; every read routed to that shard fails
// with a typed error, every other read is served, and the program then
// rebuilds the lost device state from the buddy carve-out with
// Pool.Recover (the carve-out behaves as a write-through mirror, so
// nothing acknowledged is lost). Afterwards it drains a shard for
// "maintenance" — live-migrating its residents to the shard with the most
// headroom — reopens it, and asks the rebalancer for one scan. Recovery
// and rebalancing are calls the program makes; the pool runs no
// background goroutine for either, so every count it prints is the same
// every run.
package main

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"time"

	"buddy"
	"buddy/internal/gen"
)

func main() {
	const (
		shards   = 4
		clients  = 8
		workset  = 64 << 10
		perShard = int64(clients) * workset * 2 / shards
	)
	fi := buddy.NewFailureInjector()
	p, err := buddy.NewPool(
		buddy.WithShards(shards),
		buddy.WithDeviceBytes(perShard),
		buddy.WithFailureInjector(fi),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer p.Close()
	fmt.Printf("pool: %d shards x %d KiB\n", shards, perShard>>10)

	// Resident working sets, one per client.
	handles := make([]*buddy.Handle, clients)
	data := make([][]byte, clients)
	for c := range handles {
		data[c] = make([]byte, workset)
		gen.Noisy64{NoiseBits: 8, HiStep: 1}.Fill(data[c], gen.NewRNG(uint64(c), 1))
		h, err := p.Malloc(fmt.Sprintf("client-%d", c), workset, buddy.Target2x)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := h.WriteAt(data[c], 0); err != nil {
			log.Fatal(err)
		}
		handles[c] = h
	}

	// Kill shard 0 mid-serve: reads routed there fail with a typed error,
	// and only those, until the shard is rebuilt from buddy memory.
	if err := fi.Kill(0); err != nil {
		log.Fatal(err)
	}
	buf := make([]byte, workset)
	failedOps := 0
	for c, h := range handles {
		_, err := h.ReadAt(buf, 0)
		switch dead := h.Shard() == 0; {
		case dead && errors.Is(err, buddy.ErrDeviceFailed):
			failedOps++
		case dead:
			log.Fatalf("client %d on the killed shard: read err = %v, want ErrDeviceFailed", c, err)
		case err != nil:
			log.Fatalf("client %d on healthy shard %d: %v", c, h.Shard(), err)
		}
	}
	rs, err := p.Recover(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shard %d killed: %d reads hit the dead tier; rebuilt %d entries (%d KiB over the buddy link) in %s\n",
		rs.Shard, failedOps, rs.Entries, rs.RebuiltBytes>>10, rs.Elapsed.Round(time.Microsecond))

	// Everything survives: the carve-out mirror held every entry.
	for c, h := range handles {
		if _, err := h.ReadAt(buf, 0); err != nil {
			log.Fatal(err)
		}
		if !bytes.Equal(buf, data[c]) {
			log.Fatalf("client %d lost data across the failure", c)
		}
	}
	fmt.Println("all resident data verified after recovery: zero lost bytes")

	// Maintenance: drain shard 1 — its residents live-migrate to the
	// emptiest shards, handles keep routing — then reopen it.
	if err := p.Drain(1); err != nil {
		log.Fatal(err)
	}
	moved := 0
	for c, h := range handles {
		if _, err := h.ReadAt(buf, 0); err != nil {
			log.Fatal(err)
		}
		if !bytes.Equal(buf, data[c]) {
			log.Fatalf("client %d lost data across the drain", c)
		}
		moved++
	}
	if err := p.Reopen(1); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shard 1 drained and reopened: %d handles still serving through live migration\n", moved)

	// One rebalancer scan: it elects the hottest shard, and a move waits for
	// the same election on consecutive calls, which a caller's ticker makes.
	migrated, err := p.Rebalance()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("one Rebalance scan: moved=%v\n", migrated)

	st := p.Stats()
	for _, s := range st.Shards {
		fmt.Printf("  shard %d: %2d allocs, %4d KiB device, draining=%v failed=%v\n",
			s.Shard, s.Allocs, s.DeviceUsed>>10, s.Draining, s.Failed)
	}
}

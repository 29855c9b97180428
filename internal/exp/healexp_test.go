package exp

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"buddy/internal/compress"
	"buddy/internal/pool"
)

// TestHealRecovery pins the heal experiment's acceptance criteria: after
// one of four shards is killed mid-serve, the pool recovers to at least
// 90% of its pre-failure modeled throughput with zero lost bytes, and the
// quiesced codec-matched migration leg does zero codec round-trips with
// symmetric migration accounting. Smoke scale keeps the test in CI budget;
// the modeled metric is scale-free.
func TestHealRecovery(t *testing.T) {
	res, err := Heal(16384)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards != 4 || res.Clients != ServeClients {
		t.Fatalf("ran %d clients on %d shards, want %d on 4", res.Clients, res.Shards, ServeClients)
	}
	if res.BaselineGBs <= 0 || res.FailureGBs <= 0 || res.RecoveredGBs <= 0 {
		t.Fatalf("degenerate round throughputs: %+v", res)
	}
	if res.RecoveryRatio < 0.9 {
		t.Errorf("post-recovery throughput is %.0f%% of baseline, want >= 90%%",
			res.RecoveryRatio*100)
	}
	if res.LostBytes != 0 {
		t.Errorf("recovery lost %d resident bytes, want 0", res.LostBytes)
	}
	if res.RebuiltEntries == 0 || res.RebuiltBytes == 0 {
		t.Errorf("rebuild moved nothing (entries=%d bytes=%d); the killed shard held residents",
			res.RebuiltEntries, res.RebuiltBytes)
	}
	if res.MigrateDecodes != 0 || res.MigrateEncodes != 0 {
		t.Errorf("codec-matched migration did %d decodes / %d encodes, want 0/0",
			res.MigrateDecodes, res.MigrateEncodes)
	}
	if res.MigrationBytesSrc == 0 || res.MigrationBytesSrc != res.MigrationBytesDst {
		t.Errorf("migration bytes src=%d dst=%d, want equal and nonzero",
			res.MigrationBytesSrc, res.MigrationBytesDst)
	}
}

// TestRoundRetriesThroughRecovery drives the shared client round's retry
// path, which a heal run need not reach (its supervisor can rebuild the
// killed shard before any operation meets it dead): a shard holding
// residents is killed before the round starts and recovered, by hand, only
// once the round has retried at least one failed operation. The round must
// then finish without error and leave every region holding the bytes it
// wrote.
func TestRoundRetriesThroughRecovery(t *testing.T) {
	codec := compress.NewBPC()
	clients, raw, err := buildServeClients(ServeClients, Quick.Workload, codec)
	if err != nil {
		t.Fatal(err)
	}
	fi := pool.NewFailureInjector()
	p, err := newFleet(serveShards, 2*raw, codec, pool.Config{Injector: fi})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	pl, err := place(p, clients)
	if err != nil {
		t.Fatal(err)
	}
	// The residents hold the complement of what the round writes, so a
	// region reads back its bytes only if the round's write to it landed.
	for c, hs := range pl.handles {
		for i, h := range hs {
			old := bytes.Clone(clients[c].data[i])
			for k := range old {
				old[k] = ^old[k]
			}
			if _, err := h.WriteAt(old, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	kill := pl.handles[0][0].Shard()
	if err := fi.Kill(kill); err != nil {
		t.Fatal(err)
	}
	var retried atomic.Int64
	done := make(chan error, 1)
	go func() {
		_, err := pl.round(0, &retried, nil)
		done <- err
	}()
	for retried.Load() == 0 {
		select {
		case err := <-done:
			t.Fatalf("the round ended (err %v) without retrying against a killed shard", err)
		case <-time.After(100 * time.Microsecond):
		}
	}
	if _, err := p.Recover(kill); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("round across a kill and a recovery: %v", err)
	}
	for c, hs := range pl.handles {
		for i, h := range hs {
			got := make([]byte, h.Size())
			if _, err := h.ReadAt(got, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, clients[c].data[i]) {
				t.Errorf("%s lost its contents across the retried round", h.Name())
			}
		}
	}
}

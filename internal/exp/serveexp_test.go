package exp

import "testing"

// TestServeShardedThroughput pins the serving experiment's acceptance
// criterion: 8 concurrent clients on 4 shards achieve at least 2x the
// modeled aggregate throughput of the same clients on 1 shard at equal
// total device capacity. Smoke scale keeps the test in CI budget; the
// modeled metric is scale-free (per-entry traffic over per-entry service
// time), so the ratio holds at reference fidelity too.
func TestServeShardedThroughput(t *testing.T) {
	res, err := Serve(16384, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 || res.Points[0].Shards != 1 || res.Points[1].Shards != 4 {
		t.Fatalf("points = %+v, want 1-shard baseline then 4 shards", res.Points)
	}
	if res.Clients != ServeClients || res.PayloadBytes <= 0 {
		t.Fatalf("clients=%d payload=%d", res.Clients, res.PayloadBytes)
	}
	for _, p := range res.Points {
		if p.ServiceCycles <= 0 || p.ThroughputGBs <= 0 {
			t.Fatalf("degenerate point %+v", p)
		}
		if len(p.ShardServiceCycles) != p.Shards {
			t.Fatalf("shard cycles %d for width %d", len(p.ShardServiceCycles), p.Shards)
		}
	}
	if res.Speedup < 2 {
		t.Fatalf("4-shard aggregate throughput %.2fx the 1-shard baseline, want >= 2x",
			res.Speedup)
	}
	c := res.Chunked
	if c == nil {
		t.Fatal("no chunked-stream leg in the result")
	}
	if c.ChunkBytes != serveChunkBytes || c.Shards != 4 {
		t.Fatalf("chunked leg ran at %d B on %d shards, want %d B on 4", c.ChunkBytes, c.Shards, serveChunkBytes)
	}
	if c.WallGBs <= 0 || c.Submitted == 0 {
		t.Fatalf("degenerate chunked leg %+v", c)
	}
	if c.CoalescedFrac <= 0 {
		t.Fatalf("chunked leg coalesced %.0f%% of %d tasks; adjacent 4 KiB submits must coalesce",
			100*c.CoalescedFrac, c.Submitted)
	}
	if c.Inline != 0 {
		t.Fatalf("%d of %d 4 KiB submits were served in place; they are above the in-place threshold and must queue",
			c.Inline, c.Submitted)
	}
}

// TestServeWidthSelection covers the shards<=0 fallback the cmds rely on
// and the explicit width-1 baseline-only run.
func TestServeWidthSelection(t *testing.T) {
	res, err := Serve(16384, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Points[len(res.Points)-1].Shards; got != 4 {
		t.Fatalf("default width = %d, want 4", got)
	}
	one, err := Serve(16384, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Points) != 1 || one.Points[0].Shards != 1 || one.Speedup != 1 {
		t.Fatalf("explicit width 1: points=%+v speedup=%v, want the baseline alone",
			one.Points, one.Speedup)
	}
}

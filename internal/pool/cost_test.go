package pool

import (
	"math"
	"testing"

	"buddy/internal/core"
	"buddy/internal/dram"
	"buddy/internal/gen"
	"buddy/internal/nvlink"
)

// costPool is a quiet one-shard pool over a link of the given bandwidth
// (0: NVLink2's 150 GB/s) holding one allocation of size bytes under target.
func costPool(t *testing.T, linkGBs float64, size int64, target core.TargetRatio) (*Pool, *Handle) {
	t.Helper()
	d := core.NewDevice(core.Config{DeviceBytes: 4 * size, Link: nvlink.Config{BandwidthGBs: linkGBs}})
	p, err := New([]*core.Device{d}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	h, err := p.Malloc("m", size, target)
	if err != nil {
		t.Fatal(err)
	}
	return p, h
}

// ledgerCycles prices a device's ledgers: what its shard's clock has to have
// advanced by over a sequence that loaded one link direction only.
func ledgerCycles(d *core.Device) float64 {
	t := d.Traffic()
	return d.Cycles(core.Cost{DeviceBytes: t.DeviceReadBytes + t.DeviceWriteBytes, LinkRead: t.BuddyReadBytes, LinkWrite: t.BuddyWriteBytes})
}

// serve submits data (or, with read, a read of len(data) bytes) in chunk-byte
// operations, each awaited before the next, and returns how far the shard's
// clock moved, in cycles.
func serve(t *testing.T, p *Pool, h *Handle, data []byte, chunk int, read bool) float64 {
	t.Helper()
	s := p.scheds[h.Shard()]
	start := s.clock.Load()
	for off := 0; off < len(data); off += chunk {
		submit, buf := p.SubmitWrite, data[off:off+chunk]
		if read {
			submit, buf = p.SubmitRead, make([]byte, chunk)
		}
		if _, err := submit(h, buf, int64(off)).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	return float64(s.clock.Load()-start) / (1 << clockFracBits)
}

// serviceCycles is the formula the serve and heal experiments carried before
// ShardStats.ServiceCycles: device bytes at the Tab. 2 HBM2 rate plus the
// busier link direction's occupancy.
func serviceCycles(s ShardStats) float64 {
	hbm := dram.DefaultConfig()
	dev := float64(s.Traffic.DeviceReadBytes+s.Traffic.DeviceWriteBytes) / (hbm.BandwidthGBs / hbm.CoreClockGHz)
	return dev + max(s.LinkReadBusyCycles, s.LinkWriteBusyCycles)
}

func fill(g gen.Generator, n int) []byte {
	b := make([]byte, n)
	g.Fill(b, gen.NewRNG(3, 1))
	return b
}

// TestClockEqualsPricedLedger pins the modeled clock to the ledgers. Over a
// write-only or read-only sequence of aligned operations on a quiet shard the
// clock's advance is Device.Cycles of the ledgers' delta to within the clock's
// resolution per operation — no truncation (256 x 4 KiB of raw frames at 1x
// moved the clock 1280 cycles where the ledgers said 1521), no floor of one
// cycle under a one-entry operation — at whatever rate the device's own link
// runs. The cycles per MiB are the ledgers' bytes over Tab. 2's rates: 385 for
// anything that stores no sector (32 B per entry and a metadata fill per 64),
// 1521 / 5307 for raw frames at 1x / 2x, 14395 at 2x over a 50 GB/s link.
func TestClockEqualsPricedLedger(t *testing.T) {
	const mib, chunk = 1 << 20, 4 << 10
	for _, tc := range []struct {
		name    string
		linkGBs float64
		target  core.TargetRatio
		data    gen.Generator
		want    float64 // cycles per MiB moved, to the nearest
	}{
		{"zeros/2x", 0, core.Target2x, gen.Zeros{}, 385},
		{"ramp/4x", 0, core.Target4x, gen.Ramp{Start: 3, Step: 11}, 385},
		{"raw/1x", 0, core.Target1x, gen.Random{}, 1521},
		{"raw/2x", 0, core.Target2x, gen.Random{}, 5307},
		{"raw/2x/50GBs", 50, core.Target2x, gen.Random{}, 14395},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, h := costPool(t, tc.linkGBs, mib, tc.target)
			data := fill(tc.data, mib)
			for _, read := range []bool{false, true} {
				p.ResetTraffic()
				got, want := serve(t, p, h, data, chunk, read), ledgerCycles(p.Device(0))
				if ops := float64(mib / chunk); math.Abs(got-want) > ops/(1<<clockFracBits) {
					t.Errorf("read %v: clock advanced %.4f cycles, the ledgers price at %.4f", read, got, want)
				}
				if math.Round(want) != tc.want {
					t.Errorf("read %v: %.2f cycles per MiB, want %.0f", read, want, tc.want)
				}
				// One home for the formula: the shard's service cycles are the
				// experiments' old serviceCycles, and link occupancy the tier's
				// bytes over the link's rate, to the last bit.
				st := p.Stats().Shards[0]
				_, tier := p.Device(0).Tiers()
				rate := nvlink.New(nvlink.Config{BandwidthGBs: tc.linkGBs}).BytesPerCycle()
				if tt := tier.Traffic(); st.ServiceCycles != serviceCycles(st) ||
					st.LinkReadBusyCycles != float64(tt.ReadBytes)/rate || st.LinkWriteBusyCycles != float64(tt.WrittenBytes)/rate {
					t.Errorf("read %v: ServiceCycles %v, want %v; link busy %v / %v, want %d / %d bytes over %v",
						read, st.ServiceCycles, serviceCycles(st), st.LinkReadBusyCycles, st.LinkWriteBusyCycles, tt.ReadBytes, tt.WrittenBytes, rate)
				}
			}
		})
	}

	// One entry: a fraction of a cycle on the clock, one whole cycle in the
	// histogram — which rounds up, so p50 > 0 needs no floor under the clock.
	p, h := costPool(t, 0, mib, core.Target1x)
	got := serve(t, p, h, fill(gen.Random{}, core.EntryBytes), core.EntryBytes, false)
	if want := ledgerCycles(p.Device(0)); got >= 1 || math.Abs(got-want) > 1.0/(1<<clockFracBits) {
		t.Errorf("one-entry write: clock advanced %.4f cycles, the ledgers price at %.4f (under one)", got, want)
	}
	if lat := p.Stats().Latency; lat.Count != 1 || lat.P50 < 1 || lat.P50 >= 2 {
		t.Errorf("one-entry write: latency %+v, want one sample of one cycle", lat)
	}
}

// TestLinkRatePricesTheClock: the same raw-frame sequence through pools over a
// 150 and a 50 GB/s link moves the same bytes and differs in modeled time by
// exactly the link term, which is three times as long on the slower link.
func TestLinkRatePricesTheClock(t *testing.T) {
	const size, chunk = 256 << 10, 4 << 10
	data := fill(gen.Random{}, size)
	hbm := dram.DefaultConfig()
	var link [2]float64 // cycles beyond the device term
	var p50 [2]float64
	for k, gbs := range []float64{150, 50} {
		p, h := costPool(t, gbs, size, core.Target2x)
		got := serve(t, p, h, data, chunk, false)
		tr := p.Device(0).Traffic()
		link[k] = got - float64(tr.DeviceReadBytes+tr.DeviceWriteBytes)/(hbm.BandwidthGBs/hbm.CoreClockGHz)
		if want := float64(tr.BuddyWriteBytes) / (gbs / hbm.CoreClockGHz); math.Abs(link[k]-want) > size/chunk/float64(1<<clockFracBits) {
			t.Errorf("%v GB/s: link term %.3f cycles, want %d bytes over the rate = %.3f", gbs, link[k], tr.BuddyWriteBytes, want)
		}
		p50[k] = p.Stats().Latency.P50
	}
	if r := link[1] / link[0]; math.Abs(r-3) > 1e-3 {
		t.Errorf("link terms %.3f and %.3f cycles: ratio %.4f, want 3", link[0], link[1], r)
	}
	if p50[1] <= p50[0] {
		t.Errorf("modeled p50 %.1f cycles at 50 GB/s, %.1f at 150: the slower link must read slower", p50[1], p50[0])
	}
}

// TestModeledCostFollowsData: an operation's modeled time is a statement about
// its data. A 4 KiB write of zeros is cheaper than one of sparse activations,
// which is cheaper than one of raw frames, and a read of never-written entries
// costs the minimum access — the cost of the zeros. (Priced by target ratio
// and payload length alone, all four cost the same.)
func TestModeledCostFollowsData(t *testing.T) {
	const chunk = 4 << 10
	p, h := costPool(t, 0, 64<<10, core.Target2x)
	fresh := serve(t, p, h, make([]byte, chunk), chunk, true)
	var cost []float64
	for _, g := range []gen.Generator{gen.Zeros{}, gen.SparseFP16{ZeroFrac: 0.9}, gen.Random{}} {
		cost = append(cost, serve(t, p, h, fill(g, chunk), chunk, false))
	}
	if !(cost[0] < cost[1] && cost[1] < cost[2]) {
		t.Errorf("4 KiB write of zeros, sparse, raw: %.3f, %.3f, %.3f cycles, want strictly rising", cost[0], cost[1], cost[2])
	}
	// 32 entries x 32 B; the first operation also filled the metadata line.
	d := p.Device(0)
	min, fillLine := d.Cycles(core.Cost{DeviceBytes: chunk / core.EntryBytes * 32}), d.Cycles(core.Cost{DeviceBytes: core.MetadataLineBytes})
	if math.Abs(cost[0]-min) > 1e-3 || math.Abs(fresh-cost[0]-fillLine) > 2e-3 {
		t.Errorf("zeros %.4f, never-written read %.4f cycles, want the minimum access %.4f (and one metadata fill on the first)", cost[0], fresh, min)
	}
}

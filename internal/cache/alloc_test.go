package cache

import (
	"testing"

	"kagura/internal/compress"
)

// The simulator calls Access/Fill once or twice per instruction; any heap
// allocation on those paths multiplies into hundreds of thousands of objects
// per run. These tests pin the steady-state allocation budget at zero.

// TestSizeProbeZeroAlloc: the per-fill compression probe (devirtualized
// CompressedSize) must never touch the heap, for every built-in codec. Each
// probe uses a new address, so it misses the probe memo and reaches the
// codec.
func TestSizeProbeZeroAlloc(t *testing.T) {
	data := mkBlock(3)
	for _, codec := range compress.Extended() {
		c := New(DefaultConfig(codec.Name(), codec))
		addr := uint32(0)
		allocs := testing.AllocsPerRun(200, func() {
			c.compressedSegments(addr, data)
			addr += 32
		})
		if allocs != 0 { //kagura:allow floateq AllocsPerRun returns an exact integral count
			t.Errorf("%s: compressedSegments allocates %.1f objects/run, want 0", codec.Name(), allocs)
		}
	}
}

// evictionCodecs are the configurations the eviction tests cover: no codec,
// then every built-in codec. A fill-path call that builds an encoding (a
// Compress on a concrete codec) allocates, and fails these tests.
func evictionCodecs() []compress.Sizer {
	out := []compress.Sizer{nil}
	for _, codec := range compress.Extended() {
		out = append(out, codec)
	}
	return out
}

func codecName(codec compress.Sizer) string {
	if codec == nil {
		return "nil"
	}
	return codec.Name()
}

// steadyFillAllocs warms a cache with 64 fills, then reports the allocations
// per further fill, each of which evicts; dirty sets whether the fills (and
// so the victims) are dirty.
func steadyFillAllocs(t *testing.T, codec compress.Sizer, dirty bool) float64 {
	t.Helper()
	c := New(DefaultConfig(codecName(codec), codec))
	blocks := make([][]byte, 8)
	for i := range blocks {
		blocks[i] = mkBlock(byte(i))
	}
	// Warm every set structure past its steady-state footprint.
	for i := uint32(0); i < 64; i++ {
		c.Fill(i*32, blocks[i%8], dirty, codec != nil, false, int64(i))
	}
	addr := uint32(64 * 32)
	now := int64(64)
	allocs := testing.AllocsPerRun(200, func() {
		c.Fill(addr, blocks[int(addr/32)%8], dirty, codec != nil, false, now)
		addr += 32
		now++
	})
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	return allocs
}

// TestCleanEvictionZeroAlloc: once warm, a fill that evicts only clean blocks
// performs no allocation — victim records live in the recycled scratch and
// clean victims carry no data.
func TestCleanEvictionZeroAlloc(t *testing.T) {
	for _, codec := range evictionCodecs() {
		if allocs := steadyFillAllocs(t, codec, false); allocs != 0 { //kagura:allow floateq AllocsPerRun returns an exact integral count
			t.Errorf("codec=%s: clean-eviction Fill allocates %.1f objects/run, want 0", codecName(codec), allocs)
		}
	}
}

// TestDirtyEvictionSteadyStateZeroAlloc: dirty victims copy into the arena,
// which is recycled — steady-state dirty traffic allocates nothing either.
func TestDirtyEvictionSteadyStateZeroAlloc(t *testing.T) {
	for _, codec := range evictionCodecs() {
		if allocs := steadyFillAllocs(t, codec, true); allocs != 0 { //kagura:allow floateq AllocsPerRun returns an exact integral count
			t.Errorf("codec=%s: dirty-eviction Fill allocates %.1f objects/run, want 0", codecName(codec), allocs)
		}
	}
}

// TestAccessHitZeroAlloc: read and write hits (including the in-place
// recompression of a compressed line) stay off the heap.
func TestAccessHitZeroAlloc(t *testing.T) {
	c := New(DefaultConfig("hit", compress.BDI{}))
	c.Fill(0x000, mkBlock(1), false, true, false, 0)
	wdata := []byte{1, 2, 3, 4}
	now := int64(1)
	allocs := testing.AllocsPerRun(200, func() {
		c.Access(0x000, false, nil, true, now)
		c.Access(0x004, true, wdata, true, now+1)
		now += 2
	})
	if allocs != 0 { //kagura:allow floateq AllocsPerRun returns an exact integral count
		t.Errorf("hit path allocates %.1f objects/run, want 0", allocs)
	}
}

// TestVictimScratchRecycled documents the Victim lifetime contract: records
// from one operation are recycled by the next.
func TestVictimScratchRecycled(t *testing.T) {
	c := New(DefaultConfig("scratch", nil))
	data := mkBlock(7)
	c.Fill(0x000, data, true, false, false, 0)
	c.Fill(0x080, mkBlock(8), false, false, false, 1)
	res := c.Fill(0x100, mkBlock(9), false, false, false, 2)
	if len(res.Evicted) != 1 || !res.Evicted[0].Dirty {
		t.Fatalf("expected one dirty victim, got %+v", res.Evicted)
	}
	saved := append([]byte(nil), res.Evicted[0].Data...)
	// The next fill may reuse the scratch; the earlier record is stale now.
	c.Fill(0x180, mkBlock(10), true, false, false, 3)
	c.Fill(0x200, mkBlock(11), false, false, false, 4)
	if string(saved) != string(data) {
		t.Fatal("copied victim data must survive")
	}
}

// TestCleanVictimCarriesNoData pins the lazy-data contract: clean victims
// return nil Data (nothing to write back).
func TestCleanVictimCarriesNoData(t *testing.T) {
	c := New(DefaultConfig("clean", nil))
	c.Fill(0x000, mkBlock(1), false, false, false, 0)
	c.Fill(0x080, mkBlock(2), false, false, false, 1)
	res := c.Fill(0x100, mkBlock(3), false, false, false, 2)
	if len(res.Evicted) != 1 {
		t.Fatalf("evictions = %+v", res.Evicted)
	}
	if v := res.Evicted[0]; v.Dirty || v.Data != nil {
		t.Fatalf("clean victim should carry no data, got %+v", v)
	}
}

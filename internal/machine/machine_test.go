package machine_test

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/mcode"
)

// page2M is the log2 of a huge page, 2 MiB.
const page2M = 21

// TestFetchModelICache: re-executing the same line is free; distinct
// lines beyond capacity miss.
func TestFetchModelICache(t *testing.T) {
	f := machine.NewFetchModel()
	if extra := f.Fetch(0x1000); extra == 0 {
		t.Error("first fetch of a line should miss")
	}
	if extra := f.Fetch(0x1004); extra != 0 {
		t.Error("same-line fetch should be free")
	}
	if extra := f.Fetch(0x1000); extra != 0 {
		t.Error("warm line should hit")
	}
}

// TestFetchModelITLB4K: touching more 4K pages than the TLB holds
// causes misses on re-walk; huge-page-covered code does not.
func TestFetchModelITLB4K(t *testing.T) {
	f := machine.NewFetchModel()
	f.Huge = mcode.NewCache(0) // no huge pages mapped
	// Touch 64 distinct pages, then re-touch the first: must miss.
	for i := uint64(0); i < 64; i++ {
		f.Fetch(0x100000 + i*4096)
	}
	m0 := f.ITLBMisses
	f.Fetch(0x100000)
	if f.ITLBMisses == m0 {
		t.Error("expected an I-TLB miss after thrashing 64 pages")
	}
}

// TestFetchModelHugePages: the same sweep under a 2MiB mapping stays
// within the dedicated huge entries — the Section 5.1.2 mechanism.
func TestFetchModelHugePages(t *testing.T) {
	f := machine.NewFetchModel()
	f.Huge = mcode.NewCache(0)
	base, err := f.Huge.Alloc(mcode.AreaHot, 64*4096)
	if err != nil {
		t.Fatal(err)
	}
	f.Huge.SetHugePages(1 << page2M)
	for i := uint64(0); i < 64; i++ {
		f.Fetch(base + i*4096)
	}
	m0 := f.ITLBMisses
	for i := uint64(0); i < 64; i++ {
		f.Fetch(base + i*4096)
	}
	if f.ITLBMisses != m0 {
		t.Errorf("huge-page sweep missed %d times on re-walk", f.ITLBMisses-m0)
	}
	if m0 != 1 {
		t.Errorf("one cold huge-page walk expected, got %d", m0)
	}
}

func TestMeterAttribution(t *testing.T) {
	var m machine.Meter
	m.Charge(10)
	if m.Cycles != 10 {
		t.Errorf("cycles = %d", m.Cycles)
	}
}

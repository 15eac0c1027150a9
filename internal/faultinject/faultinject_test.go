package faultinject

import (
	"sync"
	"testing"
)

func TestNilInjectorIsInert(t *testing.T) {
	var inj *Injector
	for _, k := range Kinds() {
		if inj.Should(k) {
			t.Fatalf("nil injector fired %s", k)
		}
		if inj.Fired(k) != 0 || inj.Draws(k) != 0 {
			t.Fatalf("nil injector has counters for %s", k)
		}
	}
	inj.ForceNext(TransPanic, 3)
	inj.CorruptBytes(nil)
	if inj.TotalFired() != 0 {
		t.Fatal("nil injector TotalFired != 0")
	}
}

func TestDeterministicFiringPattern(t *testing.T) {
	pattern := func(seed int64) []bool {
		inj := New(EnableAll(seed, 0.05))
		var p []bool
		for i := 0; i < 2000; i++ {
			p = append(p, inj.Should(CompileError))
		}
		return p
	}
	a, b := pattern(42), pattern(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := pattern(43)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical patterns")
	}
}

// EnableAll arms every kind, and each fires at about the rate.
func TestRateIsApproximatelyHonored(t *testing.T) {
	inj := New(EnableAll(7, 0.02))
	const draws = 50000
	for _, k := range Kinds() {
		for i := 0; i < draws; i++ {
			inj.Should(k)
		}
		fired := inj.Fired(k)
		// 2% of 50k = 1000; allow a generous ±40% band.
		if fired < 600 || fired > 1400 {
			t.Errorf("%s: rate 0.02 fired %d/%d times", k, fired, draws)
		}
		if inj.Draws(k) != draws {
			t.Errorf("%s: draws = %d, want %d", k, inj.Draws(k), draws)
		}
	}
}

func TestZeroAndFullRates(t *testing.T) {
	cfg := Config{Seed: 1}
	cfg.Rates[TransPanic] = 1.0
	inj := New(cfg)
	for i := 0; i < 100; i++ {
		if !inj.Should(TransPanic) {
			t.Fatal("rate 1.0 failed to fire")
		}
		if inj.Should(CompileError) {
			t.Fatal("rate 0 fired")
		}
	}
}

func TestForceNext(t *testing.T) {
	inj := New(Config{Seed: 9}) // all rates zero
	inj.ForceNext(CompileError, 2)
	got := []bool{inj.Should(CompileError), inj.Should(CompileError), inj.Should(CompileError)}
	want := []bool{true, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForceNext draw %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestForceNextConcurrent(t *testing.T) {
	inj := New(Config{Seed: 3})
	inj.ForceNext(AllocFail, 100)
	var wg sync.WaitGroup
	fired := make([]int, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if inj.Should(AllocFail) {
					fired[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, n := range fired {
		total += n
	}
	if total != 100 {
		t.Fatalf("forced fires = %d, want exactly 100", total)
	}
}

func TestCorruptBytesAndInjectedError(t *testing.T) {
	inj := New(Config{})
	data := []byte{1, 2, 3}
	inj.CorruptBytes(data)
	if data[2] == 3 {
		t.Fatal("CorruptBytes left data intact")
	}
	err := Errf(SnapshotCorrupt)
	if !IsInjected(err) {
		t.Fatal("IsInjected(Errf) = false")
	}
	if IsInjected(nil) {
		t.Fatal("IsInjected(nil) = true")
	}
}

package gshare

import (
	"slices"
	"testing"
)

func TestLearnsPattern(t *testing.T) {
	// A TNTN pattern is invisible to bimodal but trivial for gshare.
	p := New(4096, 8)
	pc := uint64(0x400)
	miss := 0
	for i := 0; i < 2000; i++ {
		taken := i%2 == 0
		if p.Predict(pc) != taken && i > 200 {
			miss++
		}
		p.Update(pc, taken)
	}
	if miss > 10 {
		t.Errorf("gshare missed a period-2 pattern %d times after warmup", miss)
	}
}

func TestLearnsHistoryCorrelation(t *testing.T) {
	// Branch B's outcome equals branch A's previous outcome.
	p := New(8192, 10)
	pcA, pcB := uint64(0x100), uint64(0x200)
	var lastA bool
	miss := 0
	rngState := uint64(12345)
	for i := 0; i < 5000; i++ {
		rngState = rngState*6364136223846793005 + 1
		a := rngState>>63 == 1
		p.Predict(pcA)
		p.Update(pcA, a)
		want := lastA
		if p.Predict(pcB) != want && i > 1000 {
			miss++
		}
		p.Update(pcB, want)
		lastA = a
	}
	// B is fully determined by one bit of history; gshare should get
	// most of them (aliasing allows some noise).
	if miss > 600 {
		t.Errorf("gshare missed history-correlated branch %d/4000 times", miss)
	}
}

func TestHistClampedToIndexBits(t *testing.T) {
	p := New(16, 30)
	if p.histBits > 4 {
		t.Errorf("history bits %d exceed index bits", p.histBits)
	}
}

func TestStorageBits(t *testing.T) {
	p := New(65536, 16)
	if got := p.StorageBits(); got != 65536*2+16 {
		t.Errorf("StorageBits = %d", got)
	}
}

// TestNewTableMatchesPerByteInit: New fills its counters with
// num.Fill; the table must equal a per-byte weakly-taken loop.
func TestNewTableMatchesPerByteInit(t *testing.T) {
	p := New(65536, 16)
	want := make([]uint8, 65536)
	for i := range want {
		want[i] = 2
	}
	if !slices.Equal(p.ctr, want) {
		t.Fatal("gshare.New(65536, 16) counters differ from per-byte initialisation")
	}
}

package bimodal

import (
	"slices"
	"testing"
)

func TestLearnsBias(t *testing.T) {
	tb := New(1024, 2)
	pc := uint64(0x40)
	for i := 0; i < 10; i++ {
		tb.Update(pc, true)
	}
	if !tb.Predict(pc) {
		t.Error("did not learn always-taken")
	}
	for i := 0; i < 10; i++ {
		tb.Update(pc, false)
	}
	if tb.Predict(pc) {
		t.Error("did not re-learn always-not-taken")
	}
}

func TestHysteresis(t *testing.T) {
	tb := New(1024, 2)
	pc := uint64(0x80)
	for i := 0; i < 10; i++ {
		tb.Update(pc, true)
	}
	// One contrary outcome must not flip a saturated counter.
	tb.Update(pc, false)
	if !tb.Predict(pc) {
		t.Error("single not-taken flipped a saturated taken counter")
	}
}

func TestConfident(t *testing.T) {
	tb := New(64, 2)
	pc := uint64(0x10)
	if tb.Confident(pc) {
		t.Error("fresh counter reported confident")
	}
	for i := 0; i < 4; i++ {
		tb.Update(pc, true)
	}
	if !tb.Confident(pc) {
		t.Error("saturated counter not confident")
	}
}

func TestEntriesRounding(t *testing.T) {
	if got := New(1000, 2).Entries(); got != 1024 {
		t.Errorf("Entries = %d, want 1024", got)
	}
}

func TestStorageBits(t *testing.T) {
	if got := New(8192, 2).StorageBits(); got != 16384 {
		t.Errorf("StorageBits = %d, want 16384", got)
	}
}

func TestSeparatesPCs(t *testing.T) {
	tb := New(4096, 2)
	for i := 0; i < 8; i++ {
		tb.Update(0x100, true)
		tb.Update(0x104, false)
	}
	if !tb.Predict(0x100) || tb.Predict(0x104) {
		t.Error("adjacent PCs alias")
	}
}

func TestPanicsOnBadBits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bits=0 accepted")
		}
	}()
	New(64, 0)
}

// TestNewTableMatchesPerByteInit: New fills its counters with
// num.Fill; the table must equal a per-byte weakly-taken loop.
func TestNewTableMatchesPerByteInit(t *testing.T) {
	tb := New(16384, 2)
	want := make([]uint8, 16384)
	for i := range want {
		want[i] = 2
	}
	if !slices.Equal(tb.ctr, want) {
		t.Fatal("bimodal.New(16384, 2) counters differ from per-byte initialisation")
	}
}

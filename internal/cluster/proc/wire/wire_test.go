package wire

import (
	"errors"
	"testing"
)

func TestCheckSizeBoundary(t *testing.T) {
	if err := CheckSize(100, 100); err != nil {
		t.Errorf("at the cap: %v", err)
	}
	err := CheckSize(101, 100)
	var se *SizeError
	if !errors.As(err, &se) {
		t.Fatalf("over the cap: got %v, want *SizeError", err)
	}
	if se.Size != 101 || se.Limit != 100 {
		t.Errorf("SizeError = %+v", se)
	}
}

func TestCheckSizeZeroMeansMaxFrame(t *testing.T) {
	if err := CheckSize(MaxFrame, 0); err != nil {
		t.Errorf("MaxFrame under default cap: %v", err)
	}
	if err := CheckSize(MaxFrame+1, 0); err == nil {
		t.Error("MaxFrame+1 under default cap: want error")
	}
	// A configured cap cannot raise the hard ceiling.
	if err := CheckSize(MaxFrame+1, MaxFrame*2); err == nil {
		t.Error("cap above MaxFrame must clamp to MaxFrame")
	}
}

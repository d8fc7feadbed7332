package prbw

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"cdagio/internal/fault"
	"cdagio/internal/gen"
)

// TestPlayPanicIsIsolated forces a panic inside the P-RBW player and
// requires PlayCtx to return a *fault.PanicError — not crash — and a clean
// re-run to be bit-identical to the uninjected baseline.
func TestPlayPanicIsIsolated(t *testing.T) {
	g := gen.Chain(32)
	topo := TwoLevel(1, 4, 1024)
	asg := SingleProcessor(g)

	want, err := PlayCtx(context.Background(), g, topo, asg)
	if err != nil {
		t.Fatalf("baseline play: %v", err)
	}

	restore := fault.SetHook(func(point string) {
		if point == fault.PointPRBWPlay {
			panic("injected play crash")
		}
	})
	_, err = PlayCtx(context.Background(), g, topo, asg)
	restore()
	var pe *fault.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("injected panic surfaced as %v, want *fault.PanicError", err)
	}
	if pe.Label != fault.PointPRBWPlay {
		t.Fatalf("PanicError label %q, want %q", pe.Label, fault.PointPRBWPlay)
	}

	got, err := PlayCtx(context.Background(), g, topo, asg)
	if err != nil {
		t.Fatalf("post-crash play: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-crash stats differ from baseline")
	}
}

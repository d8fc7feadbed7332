package pebble

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"cdagio/internal/cdag"
	"cdagio/internal/gen"
)

// trippingCtx is a context whose Err starts reporting cancellation after a
// fixed number of calls, so tests can hit the player's in-loop check
// deterministically (a timer-based cancel would race the play).
type trippingCtx struct {
	context.Context
	calls, after int
}

func (c *trippingCtx) Err() error {
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

func nonInputTopo(g *cdag.Graph) []cdag.VertexID {
	order := make([]cdag.VertexID, 0, g.NumOperations())
	for _, v := range g.MustTopoOrder() {
		if !g.IsInput(v) {
			order = append(order, v)
		}
	}
	return order
}

func TestPlayScheduleCtxCancellation(t *testing.T) {
	g := gen.Chain(64)
	order := nonInputTopo(g)

	// An already-cancelled context returns before any validation or play.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PlayScheduleCtx(cancelled, g, RBW, 2, order, Belady, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err %v, want context.Canceled", err)
	}

	// A context that trips right after the entry check stops the play at the
	// first in-loop step check instead of running to completion.
	tc := &trippingCtx{Context: context.Background(), after: 1}
	if _, err := PlayScheduleCtx(tc, g, RBW, 2, order, Belady, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: err %v, want context.Canceled", err)
	}
	if tc.calls < 2 {
		t.Fatalf("mid-run cancel: only %d Err checks, want the entry check plus an in-loop check", tc.calls)
	}

	// The checks never change a play they do not stop: a context that is
	// polled but never trips plays exactly what context.Background() plays.
	want, err := PlayScheduleCtx(context.Background(), g, RBW, 2, order, Belady, false)
	if err != nil {
		t.Fatalf("PlayScheduleCtx: %v", err)
	}
	live := &trippingCtx{Context: context.Background(), after: math.MaxInt}
	got, err := PlayScheduleCtx(live, g, RBW, 2, order, Belady, false)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("polled live context diverges: (%+v, %v) vs %+v", got, err, want)
	}
}

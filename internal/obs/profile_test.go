package obs

import (
	"bytes"
	"context"
	"runtime/pprof"
	"strings"
	"testing"
)

// goroutineLabels renders the current goroutine's pprof labels by
// dumping the goroutine profile at debug=1, which prints one
// "# labels: {...}" line per labelled goroutine. It is the only
// stdlib-visible way to observe SetGoroutineLabels, and plenty for
// asserting which phase the test goroutine is attributed to.
func goroutineLabels(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestProfileLabelsFollowSpans pins the labelling contract: with the
// layer on, Start tags the goroutine and the returned context with
// phase=<span name>, nested spans override, and End restores the
// enclosing span's label — so a CPU sample taken at any point lands in
// exactly the innermost open phase.
func TestProfileLabelsFollowSpans(t *testing.T) {
	Enable()
	defer func() {
		Disable()
		pprof.SetGoroutineLabels(context.Background())
	}()

	ctx, outer := Start(context.Background(), "profiletest/outer")
	if got, ok := pprof.Label(ctx, "phase"); !ok || got != "profiletest/outer" {
		t.Fatalf("outer ctx phase label = %q, %v; want profiletest/outer", got, ok)
	}
	if !strings.Contains(goroutineLabels(t), `"phase":"profiletest/outer"`) {
		t.Error("outer span did not label the goroutine")
	}

	ictx, inner := Start(ctx, "profiletest/inner")
	if got, _ := pprof.Label(ictx, "phase"); got != "profiletest/inner" {
		t.Errorf("inner ctx phase label = %q, want profiletest/inner", got)
	}
	if !strings.Contains(goroutineLabels(t), `"phase":"profiletest/inner"`) {
		t.Error("inner span did not relabel the goroutine")
	}
	inner.End()
	if !strings.Contains(goroutineLabels(t), `"phase":"profiletest/outer"`) {
		t.Error("inner End did not restore the outer phase label")
	}
	outer.End()
	if strings.Contains(goroutineLabels(t), `"phase":"profiletest/`) {
		t.Error("outer End did not clear the phase label")
	}
}

// TestWithRunLabelComposes pins that the run label merges with (never
// replaces) the phase label, and that the enclosing span's End reverts
// both.
func TestWithRunLabelComposes(t *testing.T) {
	Enable()
	defer func() {
		Disable()
		pprof.SetGoroutineLabels(context.Background())
	}()

	ctx, sp := Start(context.Background(), "profiletest/campaign")
	ctx = WithRunLabel(ctx, "run-42")
	if got, _ := pprof.Label(ctx, "run"); got != "run-42" {
		t.Errorf("run label = %q, want run-42", got)
	}
	if got, _ := pprof.Label(ctx, "phase"); got != "profiletest/campaign" {
		t.Errorf("phase label = %q after WithRunLabel, want profiletest/campaign", got)
	}
	dump := goroutineLabels(t)
	if !strings.Contains(dump, `"run":"run-42"`) || !strings.Contains(dump, `"phase":"profiletest/campaign"`) {
		t.Errorf("goroutine labels missing run/phase pair:\n%s", dump)
	}
	sp.End()
	if strings.Contains(goroutineLabels(t), `"run":"run-42"`) {
		t.Error("span End did not revert the run label")
	}
}

// TestProfileLabelsDarkByDefault pins that labels are off whenever the
// layer is off: Start hands back the caller's context and a nil span,
// the goroutine's label set is never touched, and WithRunLabel is an
// identity.
func TestProfileLabelsDarkByDefault(t *testing.T) {
	Disable()
	base := context.Background()
	ctx, sp := Start(base, "profiletest/dark")
	defer sp.End()
	if ctx != base || sp != nil {
		t.Error("Start derived a context or span with the layer off")
	}
	if _, ok := pprof.Label(ctx, "phase"); ok {
		t.Error("phase label attached with the layer off")
	}
	if got := WithRunLabel(ctx, "run-1"); got != ctx {
		t.Error("WithRunLabel did not pass ctx through with the layer off")
	}
	if dump := goroutineLabels(t); strings.Contains(dump, `"profiletest/dark"`) || strings.Contains(dump, `"run-1"`) {
		t.Error("goroutine labelled with the layer off")
	}
}

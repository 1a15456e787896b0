package report

import (
	"strings"
	"testing"

	"gem5aladdin/internal/ddg"
	"gem5aladdin/internal/soc"
	"gem5aladdin/internal/trace"
)

func recordedResult(t *testing.T) *soc.RunResult {
	t.Helper()
	b := trace.NewBuilder("rec")
	a := b.Alloc("a", trace.F64, 128, trace.InOut)
	for i := 0; i < 128; i++ {
		b.SetF64(a, i, 1)
	}
	for i := 0; i < 128; i++ {
		b.BeginIter()
		b.Store(a, i, b.FMul(b.Load(a, i), b.ConstF(3)))
	}
	cfg := soc.DefaultConfig()
	cfg.RecordSchedule = true
	r, err := soc.Run(soc.Compile(ddg.Build(b.Finish())), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestTimelineASCII(t *testing.T) {
	r := recordedResult(t)
	bar := TimelineASCII(r, 80)
	if len(bar) != 80 {
		t.Fatalf("bar length = %d", len(bar))
	}
	for _, want := range []string{"F", "D", "C"} {
		if !strings.Contains(bar, want) {
			t.Fatalf("timeline %q missing %q segment", bar, want)
		}
	}
	// Tiny widths clamp rather than panic.
	if got := TimelineASCII(r, 1); len(got) != 10 {
		t.Fatalf("clamped width = %d", len(got))
	}
}

func TestGanttASCII(t *testing.T) {
	r := recordedResult(t)
	if len(r.Schedule) == 0 {
		t.Fatal("no schedule recorded")
	}
	out := GanttASCII(r, r.Schedule, r.Config.Lanes, 60)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 1+r.Config.Lanes {
		t.Fatalf("gantt has %d lines, want %d", len(lines), 1+r.Config.Lanes)
	}
	if !strings.HasPrefix(lines[0], "phase") {
		t.Fatalf("first line %q", lines[0])
	}
	// Every lane shows some activity for this balanced kernel.
	for _, ln := range lines[1:] {
		if !strings.Contains(ln, "#") {
			t.Fatalf("idle lane in gantt:\n%s", out)
		}
	}
	// Lanes are idle at the start (during flush+DMA head): the first
	// columns of each lane row are dots.
	if !strings.Contains(lines[1], "lane0") {
		t.Fatalf("lane label missing: %q", lines[1])
	}
}

func TestGanttEmptySchedule(t *testing.T) {
	r := recordedResult(t)
	out := GanttASCII(r, nil, 4, 40)
	if !strings.HasPrefix(out, "phase") {
		t.Fatal("empty-schedule gantt missing phase bar")
	}
}

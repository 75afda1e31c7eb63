package span_test

import (
	"bytes"
	"testing"

	"platinum/internal/apps"
	"platinum/internal/kernel"
	"platinum/internal/span"
)

// TestWriteChromeMatchesReferenceOnGauss checks the streaming writer
// against the encoding/json reference on a real recording: Fig. 1's
// 240x240 Gauss on 16 processors with 256-word pages and seed 1, the
// 22,362 spans the gauss-16p-observed benchmark workload exports.
func TestWriteChromeMatchesReferenceOnGauss(t *testing.T) {
	kcfg := kernel.DefaultConfig()
	kcfg.Machine.PageWords = 256
	pl, err := apps.NewPlatinumPlatform(kcfg)
	if err != nil {
		t.Fatal(err)
	}
	pl.K.EnableSpans(0)
	cfg := apps.DefaultGaussConfig(240, 16)
	cfg.Seed = 1
	if _, err := apps.RunGaussPlatinum(pl, cfg); err != nil {
		t.Fatal(err)
	}
	spans := pl.K.Spans().Spans()
	if len(spans) != 22362 {
		t.Fatalf("recorded %d spans, want 22362", len(spans))
	}
	var got, want bytes.Buffer
	if err := span.WriteChrome(&got, spans); err != nil {
		t.Fatal(err)
	}
	if err := span.WriteChromeReference(&want, spans, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := got.Bytes(), want.Bytes()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		t.Fatalf("streamed export (%d bytes) differs from the reference (%d bytes) at byte %d:\ngot:  %q\nwant: %q",
			len(g), len(w), i, g[max(0, i-200):min(len(g), i+200)], w[max(0, i-200):min(len(w), i+200)])
	}
}

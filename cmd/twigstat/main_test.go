package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"twig"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current output")

// golden compares got against testdata/<name> (or rewrites it under
// -update). twigstat's contract is that the same flags produce
// byte-identical text, so the files pin both the numbers (simulator
// determinism) and the exact rendering (column alignment, JSONL field
// order and formatting) that downstream scripts parse.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/twigstat -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file.\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// TestOutputGolden runs one small fixed-seed twig-vs-baseline
// comparison and pins both output formats.
func TestOutputGolden(t *testing.T) {
	const (
		app          = "drupal"
		scheme       = "twig"
		input        = 0
		instructions = 200_000
		epoch        = 50_000
	)
	cfg := twig.DefaultConfig()
	cfg.Instructions = instructions
	cfg.Epoch = epoch
	sys, err := twig.NewSystemTrained(twig.Drupal, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := sys.Run("baseline", input)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run("twig", input)
	if err != nil {
		t.Fatal(err)
	}

	var table bytes.Buffer
	printTable(&table, app, scheme, input, epoch, base, res)
	golden(t, "drupal_twig_table.golden", table.Bytes())

	var jsonl bytes.Buffer
	printJSONL(&jsonl, base, res)
	golden(t, "drupal_twig_jsonl.golden", jsonl.Bytes())
}

// TestTableShape checks structural properties that must hold for any
// parameters, independent of the pinned numbers: one line per epoch
// plus header and total, and every table line equally wide.
func TestTableShape(t *testing.T) {
	cfg := twig.DefaultConfig()
	cfg.Instructions = 100_000
	cfg.Epoch = 25_000
	sys, err := twig.NewSystemTrained(twig.Kafka, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := sys.Run("baseline", 0)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	printTable(&out, "kafka", "baseline", 0, cfg.Epoch, base, base)
	lines := bytes.Split(bytes.TrimRight(out.Bytes(), "\n"), []byte("\n"))
	// Comment, header, 4 epochs, total.
	if want := 3 + len(base.Epochs); len(lines) != want {
		t.Fatalf("table has %d lines, want %d:\n%s", len(lines), want, out.Bytes())
	}
	for i := 2; i < len(lines); i++ {
		if len(lines[i]) != len(lines[1]) {
			t.Errorf("line %d width %d != header width %d:\n%s", i, len(lines[i]), len(lines[1]), out.Bytes())
		}
	}
}

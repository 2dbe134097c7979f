package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"twig/internal/pipeline"
	"twig/internal/runner"
)

func TestParseSections(t *testing.T) {
	text := `
== fig1: Frontend stuff ==
paper: 24-78%
app x
row 1

== tab1: Parameters ==
col a
`
	secs := parseSections(text)
	if len(secs) != 2 {
		t.Fatalf("parsed %d sections, want 2", len(secs))
	}
	if secs[0].ID != "fig1" || secs[0].Title != "Frontend stuff" {
		t.Fatalf("section 0 header = %q / %q", secs[0].ID, secs[0].Title)
	}
	if secs[0].Paper != "24-78%" {
		t.Fatalf("section 0 paper = %q", secs[0].Paper)
	}
	if !strings.Contains(secs[0].Body, "row 1") {
		t.Fatalf("section 0 body lost content: %q", secs[0].Body)
	}
	if secs[1].ID != "tab1" || secs[1].Paper != "" {
		t.Fatalf("section 1 = %+v", secs[1])
	}
}

func TestParseSectionsEmpty(t *testing.T) {
	if got := parseSections(""); len(got) != 0 {
		t.Fatalf("empty input produced %d sections", len(got))
	}
}

func TestWriteHTML(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.html")
	text := "== fig9: Things <script>alert(1)</script> ==\npaper: quote \"x\"\nbody & stuff\n"
	if err := writeHTML(path, text, 1000, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	html := string(data)
	if !strings.Contains(html, "fig9") {
		t.Fatal("section missing from report")
	}
	// html/template must have escaped the hostile title.
	if strings.Contains(html, "<script>alert(1)</script>") {
		t.Fatal("unescaped HTML in report")
	}
	if !strings.Contains(html, "body &amp; stuff") {
		t.Fatal("body not escaped/rendered")
	}
}

func TestListCache(t *testing.T) {
	dir := t.TempDir()
	cache, err := runner.OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Entries live at <dir>/<first two hash chars>/<hash>.json.
	path := func(h string) string { return filepath.Join(dir, h[:2], h+".json") }
	size := func(h string) int64 {
		info, err := os.Stat(path(h))
		if err != nil {
			t.Fatal(err)
		}
		return info.Size()
	}
	cache.Put("aa01", runner.ResultCodec{}, &pipeline.Result{Original: 1})
	cache.Put("aa02", runner.ResultCodec{}, &pipeline.Result{Original: 2})
	cache.Put("bb01", runner.JSONCodec[int]{}, 42)

	// A well-formed envelope written under another simulator version.
	cache.Put("cc01", runner.ResultCodec{}, &pipeline.Result{Original: 3})
	env, err := os.ReadFile(path("cc01"))
	if err != nil {
		t.Fatal(err)
	}
	sim := []byte(`"sim":"` + runner.SimVersion + `"`)
	if !bytes.Contains(env, sim) {
		t.Fatalf("envelope lacks %s: %s", sim, env)
	}
	env = bytes.Replace(env, sim, []byte(`"sim":"other-sim"`), 1)
	if err := os.WriteFile(path("cc01"), env, 0o644); err != nil {
		t.Fatal(err)
	}

	// A .json file that is not JSON.
	if err := os.MkdirAll(filepath.Dir(path("dd01")), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path("dd01"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := listCache(&out, cache); err != nil {
		t.Fatal(err)
	}
	results := size("aa01") + size("aa02")
	total := results + size("bb01") + size("cc01") + size("dd01")
	want := fmt.Sprintf("cache: 5 entries, %d bytes\n"+
		"  json            1 entries %12d bytes\n"+
		"  result          2 entries %12d bytes\n"+
		"  stale           1 entries\n"+
		"  corrupt         1 entries\n", total, size("bb01"), results)
	if out.String() != want {
		t.Fatalf("listCache printed\n%s\nwant\n%s", out.String(), want)
	}
}

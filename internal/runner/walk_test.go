package runner

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"twig/internal/pipeline"
)

func TestWalkEnumeratesByKind(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(hash("w1"), ResultCodec{}, &pipeline.Result{Original: 1})
	c.Put(hash("w2"), ResultCodec{}, &pipeline.Result{Original: 2})
	c.Put(hash("w3"), JSONCodec[int]{}, 42)

	// One corrupt file and one stale-version envelope alongside.
	badPath := c.path(hash("w4"))
	os.MkdirAll(filepath.Dir(badPath), 0o755)
	os.WriteFile(badPath, []byte("garbage"), 0o644)
	stale := fmt.Sprintf(`{"format":%d,"sim":"other-sim","codec":"result","hash":%q,"payload":"e30="}`,
		FormatVersion, hash("w5"))
	stalePath := c.path(hash("w5"))
	os.MkdirAll(filepath.Dir(stalePath), 0o755)
	os.WriteFile(stalePath, []byte(stale), 0o644)

	counts := map[string]int{}
	var staleN, corruptN int
	var total int64
	if err := c.Walk(func(e WalkEntry) error {
		switch {
		case e.Err != nil:
			corruptN++
		case e.Stale:
			staleN++
		default:
			counts[e.Codec]++
		}
		total += e.Bytes
		return nil
	}); err != nil {
		t.Fatalf("Walk: %v", err)
	}
	if counts["result"] != 2 || counts["json"] != 1 {
		t.Fatalf("codec counts = %v, want result:2 json:1", counts)
	}
	if staleN != 1 || corruptN != 1 {
		t.Fatalf("stale/corrupt = %d/%d, want 1/1", staleN, corruptN)
	}
	if total <= 0 {
		t.Fatal("Walk reported no bytes")
	}

	// fn errors stop the walk and propagate.
	sentinel := errors.New("stop")
	if err := c.Walk(func(WalkEntry) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("Walk error = %v, want sentinel", err)
	}

	// Memory-only caches walk nothing.
	mem, _ := OpenCache("", 0)
	if err := mem.Walk(func(WalkEntry) error { return sentinel }); err != nil {
		t.Fatalf("memory-only Walk = %v, want nil", err)
	}
}

func TestWalkDeterministicOrder(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		c.Put(hash(fmt.Sprintf("ord%d", i)), JSONCodec[int]{}, i)
	}
	collect := func() []string {
		var hs []string
		c.Walk(func(e WalkEntry) error {
			hs = append(hs, e.Hash)
			return nil
		})
		return hs
	}
	a, b := collect(), collect()
	if len(a) != 8 || fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("Walk order unstable or incomplete:\n%v\n%v", a, b)
	}
}

package profile

import (
	"bytes"
	"os"
	"testing"
)

// FuzzLoad feeds arbitrary bytes to the profile decoder: it must reject
// or decode, never panic or over-allocate (the implausibility caps),
// and every window of a decoded profile must lie inside its log.
func FuzzLoad(f *testing.F) {
	// Seed with a real profile in both formats, and mutations.
	p := loopProgram(f)
	prof, _ := collect(f, p, 1, 5_000)
	var valid bytes.Buffer
	if err := prof.Save(&valid); err != nil {
		f.Fatal(err)
	}
	v1, err := os.ReadFile("testdata/wordpress-2000.twigprf1")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:len(valid.Bytes())/3])
	f.Add(v1)
	f.Add(v1[:len(v1)/2])
	f.Add([]byte(profileMagic))
	f.Add([]byte(profileMagicV1))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 128))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, s := range got.Samples {
			if s.Len < 0 || s.Len > LBRDepth || s.End < s.Len || int(s.End) > len(got.Log) {
				t.Fatalf("sample %d: window [%d-%d, %d) outside the %d-record log", i, s.End, s.Len, s.End, len(got.Log))
			}
			if len(got.Window(i)) != int(s.Len) {
				t.Fatalf("sample %d: window length differs from Len", i)
			}
		}
	})
}

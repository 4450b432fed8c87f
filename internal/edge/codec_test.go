package edge

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"lcrs/internal/collab"
	"lcrs/internal/tensor"
)

// TestInferCodecs exercises the codec-tagged v2 frames end to end: the
// server must decode every codec transparently, report which codec and how
// many bytes arrived, and count the wire bytes in its serving stats.
func TestInferCodecs(t *testing.T) {
	s := newServer(t)
	m := testModel(t)
	if _, err := s.Register("lenet-mnist", m); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	g := tensor.NewRNG(7)
	x := g.Uniform(-1, 1, 1, 1, 28, 28)
	shared := m.ForwardShared(x, false)

	var totalBytes int64
	for _, codec := range collab.Codecs() {
		var buf bytes.Buffer
		if err := collab.WriteTensorCodec(&buf, shared, codec); err != nil {
			t.Fatal(err)
		}
		frameLen := int64(buf.Len())
		totalBytes += frameLen
		resp, err := http.Post(srv.URL+"/v1/infer/lenet-mnist", "application/octet-stream", &buf)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s infer: %s", codec.Name(), resp.Status)
		}
		var ir InferResponse
		if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if ir.Codec != codec.Name() {
			t.Fatalf("response codec %q, want %q", ir.Codec, codec.Name())
		}
		if ir.PayloadBytes != frameLen {
			t.Fatalf("%s payload bytes %d, want %d", codec.Name(), ir.PayloadBytes, frameLen)
		}
		if ir.Pred < 0 || ir.Pred >= 10 {
			t.Fatalf("%s pred %d out of range", codec.Name(), ir.Pred)
		}
	}

	// q8's reconstruction stays close enough that the prediction matches
	// the raw path on this sample.
	var q8 bytes.Buffer
	if err := collab.WriteTensorCodec(&q8, shared, collab.Q8); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/infer/lenet-mnist", "application/octet-stream", &q8)
	if err != nil {
		t.Fatal(err)
	}
	var ir InferResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	totalBytes += ir.PayloadBytes
	if want := m.ForwardMainRest(shared, false).Argmax(); ir.Pred != want {
		t.Fatalf("q8 pred %d, raw pred %d", ir.Pred, want)
	}

	stats := s.Stats()
	if len(stats) != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats[0].PayloadBytes != totalBytes {
		t.Fatalf("stats payload bytes %d, want %d", stats[0].PayloadBytes, totalBytes)
	}
}

// TestCodecRestriction covers negotiation policy: the restriction list
// controls both the advertisement in the model listing and the 415 gate on
// infer, with raw always allowed for v1 interop. Construction goes through
// WithCodecs; the unexported setCodecs it wraps is called again with no
// arguments to check that the restriction can be lifted.
func TestCodecRestriction(t *testing.T) {
	if _, err := New(WithCodecs("zstd")); err == nil {
		t.Fatal("WithCodecs accepted unknown codec")
	}
	s := newServer(t, WithCodecs("f16"))
	m := testModel(t)
	if _, err := s.Register("lenet-mnist", m); err != nil {
		t.Fatal(err)
	}

	infos := s.Models()
	if len(infos) != 1 {
		t.Fatalf("models = %+v", infos)
	}
	want := map[string]bool{"raw": true, "f16": true}
	if len(infos[0].Codecs) != len(want) {
		t.Fatalf("advertised codecs %v, want raw+f16", infos[0].Codecs)
	}
	for _, name := range infos[0].Codecs {
		if !want[name] {
			t.Fatalf("unexpected advertised codec %q", name)
		}
	}

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	g := tensor.NewRNG(7)
	shared := m.ForwardShared(g.Uniform(-1, 1, 1, 1, 28, 28), false)

	post := func(codec collab.Codec) int {
		var buf bytes.Buffer
		if err := collab.WriteTensorCodec(&buf, shared, codec); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/v1/infer/lenet-mnist", "application/octet-stream", &buf)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(collab.Raw); code != http.StatusOK {
		t.Fatalf("raw after restriction: %d", code)
	}
	if code := post(collab.F16); code != http.StatusOK {
		t.Fatalf("f16 after restriction: %d", code)
	}
	if code := post(collab.Q8); code != http.StatusUnsupportedMediaType {
		t.Fatalf("q8 after restriction: %d, want 415", code)
	}

	// No arguments restores every codec.
	if err := s.setCodecs(); err != nil {
		t.Fatal(err)
	}
	if code := post(collab.Q8); code != http.StatusOK {
		t.Fatalf("q8 after reset: %d", code)
	}
	if got := len(s.Models()[0].Codecs); got != len(collab.Codecs()) {
		t.Fatalf("advertised %d codecs after reset, want %d", got, len(collab.Codecs()))
	}
}

package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/serve"
)

// A /transform body whose dims multiply past the element limit must be a
// 400, not a plan build: [2^32, 2^32] wraps the product to 0, which used to
// match the empty data array and reach the allocator.
func TestTransformRejectsOverflowingDims(t *testing.T) {
	s := serve.New(serve.Options{})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer((&handler{s: s}).mux())
	defer ts.Close()

	for _, body := range []string{
		`{"rank":2,"dims":[4294967296,4294967296],"data":[]}`,
		`{"rank":3,"dims":[4294967297,4294967296,1],"data":[]}`,
		`{"rank":2,"dims":[1073741824,1073741824],"data":[]}`,
	} {
		resp, err := http.Post(ts.URL+"/transform", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, resp.StatusCode)
		}
	}

	// The daemon is still serving.
	resp, err := http.Post(ts.URL+"/transform", "application/json",
		strings.NewReader(`{"rank":1,"dims":[2],"data":[1,0,0,0]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid request after the rejections: status %d", resp.StatusCode)
	}
}

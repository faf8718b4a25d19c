package incremental_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	tiff "repro/internal/corpus"
	"repro/internal/edit"
	"repro/internal/incremental"
	"repro/internal/server"
	"repro/pkg/cfix"
)

// TestSessionAnswersOverTheWire sends TestSessionMultiFunctionEquivalence's
// edit classes over the libtiff unit through a cfix.Client, which applies
// each changed answer to the state it holds, and requires that state to
// equal the full answer a twin session gets after every edit.
func TestSessionAnswersOverTheWire(t *testing.T) {
	if testing.Short() {
		t.Skip("edits the 100 KB libtiff unit 60 times")
	}
	p, ok := tiff.ProjectByName("libtiff", 2)
	if !ok {
		t.Fatal("corpus has no libtiff project")
	}
	text := p.ConcatenatedUnit() + incremental.PlantedFuncs
	ts := httptest.NewServer(server.New(server.Config{Log: log.New(io.Discard, "", 0)}).Handler())
	defer ts.Close()
	client := cfix.NewClient(ts.URL)
	ctx := context.Background()
	post := func(path string, req any) cfix.SessionResponse {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out cfix.SessionResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %v", path, resp.StatusCode, err)
		}
		return out
	}
	open := cfix.SessionOpenRequest{Filename: "tif.c", Source: text}
	got, err := client.SessionOpen(ctx, open)
	if err != nil {
		t.Fatal(err)
	}
	id, twin := got.SessionID, post("/v1/session/open", open).SessionID

	rng := rand.New(rand.NewSource(20261017))
	// Every class in turn, so toggles go there and back: 30 edits.
	for n := 0; n < 30; n++ {
		class, deltas := incremental.MultiFuncEdit(n, rng, text)
		if deltas == nil {
			t.Fatalf("edit %d (%s): no place to apply it", n, class)
		}
		next, err := edit.NewScript(deltas...).Apply(text)
		if err != nil {
			t.Fatalf("edit %d (%s): %v", n, class, err)
		}
		text = next
		wire := make([]cfix.SessionDelta, len(deltas))
		for i, d := range deltas {
			wire[i] = cfix.SessionDelta{Pos: int(d.Extent.Pos), End: int(d.Extent.End), Text: d.Text}
		}
		got, err := client.SessionEdit(ctx, cfix.SessionEditRequest{SessionID: id, Deltas: wire})
		if err != nil {
			t.Fatalf("edit %d (%s): %v", n, class, err)
		}
		want := post("/v1/session/edit", cfix.SessionEditRequest{SessionID: twin, Deltas: wire})
		want.SessionID = id
		if !reflect.DeepEqual(got, &want) {
			t.Fatalf("edit %d (%s): client state differs from the full answer", n, class)
		}
	}
}

package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"
)

// MigrationReport is what one live migration cost: the image that
// moved and how long the session was unable to accept ingest (export
// start to import done — after that the target serves while the source
// finishes bookkeeping).
type MigrationReport struct {
	Session    string  `json:"session"`
	Source     string  `json:"source"`
	Target     string  `json:"target"`
	Seq        uint64  `json:"seq"`
	ImageBytes int     `json:"image_bytes"`
	PauseMs    float64 `json:"pause_ms"`
}

// Migrate moves one session from source to target through the
// three-step protocol: export (suspend + LPPCKPT1 image), import
// (restore + resume on target), complete (source drops durable state
// and forwards with 421). A failed import aborts the migration so the
// session revives on the source — the checkpoint taken at export means
// nothing acknowledged is ever in flight only.
func Migrate(client *http.Client, session, source, target string) (MigrationReport, error) {
	rep := MigrationReport{Session: session, Source: source, Target: target}
	start := time.Now()
	path := "/v1/migrate/sessions/" + url.PathEscape(session)

	resp, err := client.Post(source+path+"/export", "", nil)
	if err != nil {
		return rep, fmt.Errorf("export from %s: %w", source, err)
	}
	image, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return rep, fmt.Errorf("export from %s: read image: %w", source, err)
	}
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("export from %s: %s: %s", source, resp.Status, bytes.TrimSpace(image))
	}
	rep.ImageBytes = len(image)

	req, err := http.NewRequest(http.MethodPut, target+path, bytes.NewReader(image))
	if err != nil {
		abort(client, path, source)
		return rep, err
	}
	req.Header.Set("Content-Type", "application/x-lpp-checkpoint")
	iresp, err := client.Do(req)
	if err != nil {
		abort(client, path, source)
		return rep, fmt.Errorf("import to %s: %w", target, err)
	}
	ibody, _ := io.ReadAll(iresp.Body)
	iresp.Body.Close()
	if iresp.StatusCode != http.StatusNoContent {
		abort(client, path, source)
		return rep, fmt.Errorf("import to %s: %s: %s", target, iresp.Status, bytes.TrimSpace(ibody))
	}
	rep.PauseMs = time.Since(start).Seconds() * 1e3
	if seq := iresp.Header.Get("X-Lpp-Seq"); seq != "" {
		fmt.Sscan(seq, &rep.Seq)
	}

	// The target is live; completing just retires the source's copy. A
	// failure here is reported but not fatal to the session: the source
	// still answers 409/503 until an operator re-runs complete.
	cresp, err := client.Post(source+path+"/complete?target="+url.QueryEscape(target), "", nil)
	if err != nil {
		return rep, fmt.Errorf("complete on %s (target is serving): %w", source, err)
	}
	cbody, _ := io.ReadAll(cresp.Body)
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusNoContent {
		return rep, fmt.Errorf("complete on %s (target is serving): %s: %s", source, cresp.Status, bytes.TrimSpace(cbody))
	}
	return rep, nil
}

// abort tells the source to take the session (at its escaped migrate
// path) back after a failed transfer; best effort — the migrating
// marker also yields to a restart.
func abort(client *http.Client, path, source string) {
	resp, err := client.Post(source+path+"/abort", "", nil)
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

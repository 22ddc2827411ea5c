package mcmpart_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"

	"mcmpart"
)

// installedEntry returns how many entries are marked Installed, and the
// path of the last of them.
func installedEntry(policies []mcmpart.PolicyInfo) (path string, marked int) {
	for _, p := range policies {
		if p.Installed {
			path = p.Path
			marked++
		}
	}
	return path, marked
}

// TestPolicyReportsAreNeverTorn reads Stats, Policies and GET /v1/policies
// while policies are being installed — none → A → B out of the registry,
// then C by LoadPolicy and B by ReloadPolicies in turn — and requires every
// single response to describe one installed policy: policy_installed
// exactly when there is a fingerprint, and the entry marked Installed the
// one that fingerprint was installed from (the registry artifact for A and
// B, the path-less entry for C). Each report is built from one reading of
// the installed policy (policySnapshot); run under -race in CI.
func TestPolicyReportsAreNeverTorn(t *testing.T) {
	ctx := context.Background()
	tmp := t.TempDir()
	// Three distinct policies for the package, as artifacts of no registry.
	var artifacts [3]string
	for i := range artifacts {
		artifacts[i] = filepath.Join(tmp, fmt.Sprintf("%c.policy.json", 'a'+i))
		pl, err := mcmpart.NewPlanner(mcmpart.Dev4())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pl.Pretrain(ctx, mcmpart.CorpusGraphs(1)[:4], mcmpart.PretrainOptions{
			TotalSamples: 48, Checkpoints: 2, ValidationGraphs: 1, ValidationSamples: 2, Seed: int64(i + 1),
		}); err != nil {
			t.Fatal(err)
		}
		if err := pl.SavePolicy(artifacts[i]); err != nil {
			t.Fatal(err)
		}
	}

	dir := filepath.Join(tmp, "registry")
	svc := newTestService(t, mcmpart.ServiceOptions{Workers: 1, PolicyDir: dir})
	handler := mcmpart.NewHTTPHandler(svc)
	// publisher drops artifacts into the directory the way a pre-training
	// run elsewhere would.
	publisher := newTestService(t, mcmpart.ServiceOptions{Workers: 1, PolicyDir: dir})

	// What GET /v1/policies said while the installs ran: fingerprint and
	// the path of the entry marked Installed. Judged at the end, when the
	// path each fingerprint was installed from is known.
	type report struct{ fp, installedPath string }
	var (
		mu      sync.Mutex
		reports = map[report]bool{}
		stop    = make(chan struct{})
		wg      sync.WaitGroup
	)
	stopReaders := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopReaders()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if st := svc.Stats(); st.PolicyInstalled != (st.PolicyFingerprint != "") {
					t.Errorf("Stats: policy_installed %t beside fingerprint %q", st.PolicyInstalled, st.PolicyFingerprint)
					return
				}
				if _, marked := installedEntry(svc.Policies()); marked > 1 {
					t.Errorf("Policies: %d entries marked Installed", marked)
					return
				}
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/policies", nil))
				var resp mcmpart.PoliciesResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Errorf("GET /v1/policies: %v", err)
					return
				}
				path, marked := installedEntry(resp.Policies)
				if resp.PolicyInstalled != (resp.PolicyFingerprint != "") || (marked == 1) != resp.PolicyInstalled || marked > 1 {
					t.Errorf("GET /v1/policies: policy_installed %t, fingerprint %q, %d entries marked Installed: %+v",
						resp.PolicyInstalled, resp.PolicyFingerprint, marked, resp.Policies)
					return
				}
				mu.Lock()
				reports[report{resp.PolicyFingerprint, path}] = true
				mu.Unlock()
			}
		}()
	}

	// installedFrom is, per fingerprint, the path its install recorded;
	// read back from a quiescent service after each first install.
	installedFrom := map[string]string{"": ""}
	settle := func(what string, wantPath bool) {
		t.Helper()
		path, marked := installedEntry(svc.Policies())
		if marked != 1 || (path != "") != wantPath {
			t.Fatalf("after %s: %d entries marked Installed, the last from %q", what, marked, path)
		}
		installedFrom[svc.Planner().PolicyFingerprint()] = path
	}
	publish := func(artifact string) {
		t.Helper()
		if err := publisher.Planner().LoadPolicy(artifact); err != nil {
			t.Fatal(err)
		}
		if err := publisher.SavePolicyToRegistry(); err != nil {
			t.Fatal(err)
		}
		if err := svc.ReloadPolicies(); err != nil {
			t.Fatal(err)
		}
		settle("publishing "+filepath.Base(artifact), true)
	}
	publish(artifacts[0])
	publish(artifacts[1])
	for i := 0; i < 12; i++ {
		if err := svc.Planner().LoadPolicy(artifacts[2]); err != nil {
			t.Fatal(err)
		}
		settle("LoadPolicy", false)
		if err := svc.ReloadPolicies(); err != nil {
			t.Fatal(err)
		}
		settle("ReloadPolicies", true)
	}
	stopReaders()

	if len(installedFrom) != 4 {
		t.Fatalf("the test needs three distinct policies, got fingerprints %v", installedFrom)
	}
	for r := range reports {
		if want, known := installedFrom[r.fp]; !known || r.installedPath != want {
			t.Errorf("a response carried fingerprint %q beside an installed entry from %q; that policy was installed from %q",
				r.fp, r.installedPath, want)
		}
	}
}

package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/browser"
	"repro/internal/ca"
	"repro/internal/crl"
	"repro/internal/hist"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/x509x"
)

// churnSize sizes the revocation-churn workload.
type churnSize struct {
	// Leaves are issued across Shards CRL shards; CRLOnly of them carry
	// no OCSP pointer and Revoked of them are revoked before round one.
	Leaves, Shards    int
	CRLOnly, Revoked  float64
	Rounds            int
	RevokesPerRound   int
	ClientsPerRound   int
	VerdictsPerClient int
}

var defaultChurnSize = churnSize{
	Leaves: 8192, Shards: 4, CRLOnly: 0.3, Revoked: 0.2,
	Rounds: 80, RevokesPerRound: 4, ClientsPerRound: 32, VerdictsPerClient: 6,
}

// churnWorld is one CA serving its own CRLs and OCSP on simnet, with no
// CDN in front, and the chains it issued.
type churnWorld struct {
	clock  *simtime.Clock
	net    *simnet.Network
	ca     *ca.CA
	chains [][]*x509x.Certificate
	recs   []*ca.Record
	// revoked mirrors the CA's state so rounds can pick fresh victims.
	revoked []bool
}

func newChurnWorld(sz churnSize, rng *rand.Rand, spans *spanSet, issue *span) (*churnWorld, error) {
	clock := simtime.NewClock(simtime.Date(2015, time.March, 1))
	authority, err := ca.NewRoot(ca.Config{
		Name:                          "Churn",
		NumCRLShards:                  sz.Shards,
		CRLBaseURL:                    "http://crl.churn.test/crl",
		OCSPBaseURL:                   "http://ocsp.churn.test/ocsp",
		IncludeCRLDP:                  true,
		IncludeOCSP:                   true,
		PublishRevocationsImmediately: true,
		Clock:                         clock.Now,
		Seed:                          rng.Int63(),
	})
	if err != nil {
		return nil, err
	}
	w := &churnWorld{clock: clock, net: simnet.New(), ca: authority, revoked: make([]bool, sz.Leaves)}
	for _, host := range []string{"crl.churn.test", "ocsp.churn.test"} {
		var h = authority.Handler()
		if spans != nil {
			h = originHandler{h, spans}
		}
		w.net.Register(host, h)
	}
	caCert := authority.Certificate()
	for i := 0; i < sz.Leaves; i++ {
		t0 := time.Now()
		cert, rec, err := authority.Issue(ca.IssueOptions{
			CommonName: fmt.Sprintf("site-%05d.churn.test", i),
			NotBefore:  clock.Now().AddDate(0, -1, 0),
			NotAfter:   clock.Now().AddDate(1, 0, 0),
			OmitOCSP:   rng.Float64() < sz.CRLOnly,
		})
		if err != nil {
			return nil, err
		}
		if issue != nil {
			issue.add(time.Since(t0))
		}
		w.chains = append(w.chains, []*x509x.Certificate{cert, caCert})
		w.recs = append(w.recs, rec)
	}
	for n := int(sz.Revoked * float64(sz.Leaves)); n > 0; {
		if i := rng.Intn(sz.Leaves); !w.revoked[i] {
			if err := w.revoke(i, nil); err != nil {
				return nil, err
			}
			n--
		}
	}
	return w, nil
}

func (w *churnWorld) revoke(i int, sp *span) error {
	t0 := time.Now()
	if err := w.ca.Revoke(w.recs[i].Serial, w.clock.Now(), crl.ReasonKeyCompromise); err != nil {
		return err
	}
	if sp != nil {
		sp.add(time.Since(t0))
	}
	w.revoked[i] = true
	return nil
}

// coprime draws a multiplier in [1, n) sharing no factor with n, so
// i -> a*i+b mod n permutes [0, n).
func coprime(rng *rand.Rand, n int) int {
	for {
		a := 1 + rng.Intn(n-1)
		x, y := a, n
		for y != 0 {
			x, y = y, x%y
		}
		if x == 1 {
			return a
		}
	}
}

// churnTally is what every run of a seed must reproduce.
type churnTally struct {
	Verdicts, Accepts, Rejects, Detected, Wrong int64
}

// churnIterate builds the CA world (set-up), then runs rounds of
// writes and reads: each round revokes a few more leaves, then cold
// clients (a fresh browser.Cache each) evaluate Zipf-drawn chains, each
// over its own popularity order, then
// the virtual clock advances a minute. Every verdict is checked against
// CA.IsRevoked at evaluation time.
func churnIterate(sz churnSize) func(int64, bool, *accum) error {
	return func(seed int64, traced bool, acc *accum) error {
		rng := rand.New(rand.NewSource(seed))
		var spans *spanSet
		var issue, revoke *span
		if traced {
			spans, issue, revoke = newSpanSet(), new(span), new(span)
		}
		t0 := time.Now()
		w, err := newChurnWorld(sz, rng, spans, issue)
		if err != nil {
			return err
		}
		acc.setup = append(acc.setup, time.Since(t0).Seconds())

		var httpClient = w.net.Client()
		if traced {
			httpClient = spans.storeClient(w.net)
		}
		zipf := rand.NewZipf(rng, 1.2, 1, uint64(sz.Leaves-1))
		var lat hist.Recorder
		var t churnTally
		plan := make([]int, sz.ClientsPerRound*sz.VerdictsPerClient)
		netBefore := w.net.TotalStats()

		m0 := time.Now()
		for r := 0; r < sz.Rounds; r++ {
			for n := sz.RevokesPerRound; n > 0; {
				if i := rng.Intn(sz.Leaves); !w.revoked[i] {
					if err := w.revoke(i, revoke); err != nil {
						return err
					}
					n--
				}
			}
			// Each client browses its own popularity order, a random
			// affine permutation of the leaves, so a run averages over
			// thousands of popular sets instead of hinging on a few.
			for c := 0; c < sz.ClientsPerRound; c++ {
				a, b := uint64(coprime(rng, sz.Leaves)), uint64(rng.Intn(sz.Leaves))
				for k := c * sz.VerdictsPerClient; k < (c+1)*sz.VerdictsPerClient; k++ {
					plan[k] = int((zipf.Uint64()*a + b) % uint64(sz.Leaves))
				}
			}
			if err := w.clients(sz, plan, httpClient, spans, &lat, &t); err != nil {
				return err
			}
			w.clock.Advance(time.Minute)
		}
		measured := time.Since(m0).Seconds()

		snap := lat.Snapshot()
		acc.measured += measured
		acc.ops += t.Verdicts
		acc.opSeconds += measured
		acc.lat.Add(snap)
		acc.checkN(t.Verdicts, t.Wrong)
		net := w.net.TotalStats()
		net.Requests -= netBefore.Requests
		net.BytesReceived -= netBefore.BytesReceived
		acc.fact("tally", t)
		acc.fact("requests", net.Requests)
		acc.fact("revocations", len(w.ca.Revocations()))
		acc.report("verdict_p999_us", float64(snap.Quantile(0.999))/1e3)
		acc.report("revocations", float64(len(w.ca.Revocations())))

		if traced {
			spans.addVerdicts(int64(snap.Count), time.Duration(snap.Sum))
			clientLayers(acc, spans, net, t.Verdicts, simnet.CDNStats{})
			acc.layer("ca.revoke_us", revoke.seconds()*1e6/max(revoke.count(), 1))
			acc.layer("ca.issue_s", issue.seconds())
		}
		return nil
	}
}

// clients runs one round's clients one after another: client c
// evaluates plan[c*V:(c+1)*V] through its own fresh cache, and each
// verdict must agree with the CA's revocation state. One client at a
// time, because on a two-CPU host a second worker contends with the
// garbage collector and the verdict tail then measures scheduling
// instead of the miss path.
func (w *churnWorld) clients(sz churnSize, plan []int, httpClient *http.Client, spans *spanSet, rec *hist.Recorder, t *churnTally) error {
	v := sz.VerdictsPerClient
	for c := 0; c < sz.ClientsPerRound; c++ {
		var store browser.Store = browser.NewCache()
		if spans != nil {
			store = tracedStore{browser.NewCache(), spans}
		}
		client := &browser.Client{Profile: browser.Hardened(), HTTP: httpClient, Now: w.clock.Now, Cache: store}
		for _, i := range plan[c*v : (c+1)*v] {
			_, revoked := w.ca.IsRevoked(w.recs[i].Serial)
			t0 := time.Now()
			verdict, err := client.Evaluate(w.chains[i], nil)
			if err != nil {
				return err
			}
			rec.Record(time.Since(t0))
			t.Verdicts++
			switch verdict.Outcome {
			case browser.OutcomeAccept:
				t.Accepts++
			case browser.OutcomeReject:
				t.Rejects++
			}
			if verdict.RevocationDetected {
				t.Detected++
			}
			want := browser.OutcomeAccept
			if revoked {
				want = browser.OutcomeReject
			}
			if verdict.RevocationDetected != revoked || verdict.Outcome != want {
				t.Wrong++
			}
		}
	}
	return nil
}

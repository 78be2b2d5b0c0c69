// Filesharing: the paper's motivating scenario (§1) — a KaZaA-style network
// where polluters inject bogus files. Each download has three provider
// candidates, picked with a seeded draw from the peers that share files
// (the outcome of §3.6's query process, which hiREP does not specify), and
// the requestor vets them with hiREP; the same candidate sets go through the
// flooding-based voting baseline for comparison of polluted downloads and
// traffic cost.
//
//	go run ./examples/filesharing
package main

import (
	"fmt"
	"log"
	"math/rand"

	"hirep"
)

const (
	peers        = 500
	polluterRate = 0.4 // 40% of providers serve polluted files
	providers    = 100 // peers sharing files
	candidates   = 3   // providers offered per download
	downloads    = 200
	seed         = 7
)

func main() {
	fmt.Printf("file-sharing network: %d peers, %.0f%% polluters, %d downloads\n",
		peers, polluterRate*100, downloads)

	// hiREP deployment. The oracle's trustworthy fraction is the share of
	// clean providers; polluters also lie when asked for opinions, so the
	// malicious-evaluator fraction matches the polluter rate in both systems.
	hcfg := hirep.DefaultConfig()
	hcfg.MaliciousFrac = polluterRate
	htb, err := hirep.NewTestbed(peers, 1-polluterRate, hcfg, seed)
	if err != nil {
		log.Fatal(err)
	}

	// Voting deployment over an identical world (same seed -> same oracle).
	vcfg := hirep.DefaultVotingConfig()
	vcfg.MaliciousFrac = polluterRate
	vtb, err := hirep.NewVotingTestbed(peers, 1-polluterRate, vcfg, seed)
	if err != nil {
		log.Fatal(err)
	}

	// The peers that share files, drawn once; each download is offered a
	// fresh seeded pick of them.
	rng := rand.New(rand.NewSource(seed))
	panel := rng.Perm(peers)[:providers]
	fmt.Printf("%d peers share files; each download is offered %d of them\n\n", providers, candidates)

	// A handful of heavy downloaders, as in real file-sharing workloads.
	requestors := []hirep.NodeID{3, 17, 42, 99, 123}

	var hPolluted, vPolluted, unavoidable int
	var hEarly, hLate, earlyN, lateN int
	var hMsgs, vMsgs int64
	for i := 0; i < downloads; i++ {
		req := requestors[i%len(requestors)]
		offer := pickProviders(rng, panel, req)
		clean := false
		for _, c := range offer {
			if htb.Oracle.Trustworthy(int(c)) {
				clean = true
			}
		}
		if !clean {
			unavoidable++ // every provider offered is a polluter: any system loses
		}

		// Vet the candidates with hiREP, download from the best.
		hres := htb.System.RunTransaction(req, offer)
		if !hres.Outcome {
			hPolluted++
		}
		if i < downloads/2 {
			earlyN++
			if !hres.Outcome {
				hEarly++
			}
		} else {
			lateN++
			if !hres.Outcome {
				hLate++
			}
		}
		hMsgs += hres.TrustMessages

		// Baseline: the same candidates through flooding-based voting.
		vres := vtb.System.RunTransaction(req, offer)
		if !vres.Outcome {
			vPolluted++
		}
		vMsgs += vres.TrustMessages
	}

	fmt.Printf("%d of %d downloads were offered only polluters (floor %.1f%%)\n\n",
		unavoidable, downloads, 100*float64(unavoidable)/downloads)
	fmt.Printf("%-24s %14s %18s\n", "", "hiREP", "pure voting")
	fmt.Printf("%-24s %13.1f%% %17.1f%%\n", "polluted downloads",
		100*float64(hPolluted)/downloads, 100*float64(vPolluted)/downloads)
	fmt.Printf("%-24s %14d %18d\n", "trust messages", hMsgs, vMsgs)
	fmt.Printf("%-24s %13.1fx %18s\n", "traffic advantage", float64(vMsgs)/float64(hMsgs), "1x")
	fmt.Printf("\nhiREP learning curve: polluted %.1f%% in first half -> %.1f%% in second half\n",
		100*float64(hEarly)/float64(earlyN), 100*float64(hLate)/float64(lateN))

	// Show the learning effect: a trained downloader's agent list.
	req := requestors[0]
	honest := 0
	agents := htb.System.TrustedAgentsOf(req)
	for _, a := range agents {
		if htb.System.IsHonestAgent(a) {
			honest++
		}
	}
	fmt.Printf("\nafter ~%d downloads, peer %d trusts %d agents (%d honest):\n",
		downloads/len(requestors), req, len(agents), honest)
	for _, a := range agents {
		exp, _ := htb.System.ExpertiseOf(req, a)
		fmt.Printf("  agent %-4d expertise %.3f honest=%v\n", a, exp, htb.System.IsHonestAgent(a))
	}
}

// pickProviders draws the candidates offered to one download: distinct
// sharing peers other than the requestor.
func pickProviders(rng *rand.Rand, panel []int, req hirep.NodeID) []hirep.NodeID {
	offer := make([]hirep.NodeID, 0, candidates)
	for _, idx := range rng.Perm(len(panel)) {
		if p := hirep.NodeID(panel[idx]); p != req {
			offer = append(offer, p)
			if len(offer) == candidates {
				break
			}
		}
	}
	return offer
}

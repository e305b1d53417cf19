// Blogwatch: the application motivating streaming maximum coverage in
// Saha–Getoor (and cited by the paper): out of thousands of blogs, pick k
// whose posts jointly cover the most topics. Posts arrive as a stream of
// (blog, topic) pairs — exactly the edge-arrival model, since one blog's
// topics never arrive together.
//
//	go run ./examples/blogwatch
package main

import (
	"fmt"
	"log"

	"repro/streamcover"
)

func main() {
	const (
		nBlogs  = 2000
		nTopics = 50000
		k       = 20
	)
	inst := streamcover.GenerateBlogTopics(nBlogs, nTopics, 2500, 1)
	fmt.Printf("blog-watch: %d blogs, %d topics, %d posts (edges)\n",
		inst.NumSets(), inst.NumElems(), inst.NumEdges())

	// Single pass over the post stream with an O(n)-sized sketch: the
	// space is proportional to the number of blogs, NOT the number of
	// topics or posts.
	res, err := streamcover.MaxCoverage(inst.EdgeStream(3), inst.NumSets(), k,
		streamcover.Options{
			Eps:        0.4,
			Seed:       99,
			NumElems:   inst.NumElems(),
			EdgeBudget: 80 * nBlogs, // practical O(n) budget
		})
	if err != nil {
		log.Fatal(err)
	}
	covered := inst.Coverage(res.Sets)

	// Compare with the unbounded-memory greedy.
	_, gCov := inst.GreedyMaxCoverage(k)

	fmt.Printf("\nstreaming pick of %d blogs covers %d topics (%.1f%% of reachable)\n",
		k, covered, 100*float64(covered)/float64(inst.CoveredElems()))
	fmt.Printf("offline greedy covers %d topics -> streaming ratio %.3f\n",
		gCov, float64(covered)/float64(gCov))
	fmt.Printf("\nspace: sketch stored %d edges (%.2fx n) vs %d edges in the full input (%.1fx n)\n",
		res.Sketch.EdgesStored, float64(res.Sketch.EdgesStored)/nBlogs,
		inst.NumEdges(), float64(inst.NumEdges())/nBlogs)
	fmt.Println("\ntop picked blogs:", res.Sets[:min(5, len(res.Sets))], "...")
}

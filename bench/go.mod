module github.com/canon-dht/canon/bench

go 1.22

require github.com/canon-dht/canon v0.0.0

replace github.com/canon-dht/canon => ../

module dcfp/bench

go 1.22

require dcfp v0.0.0

replace dcfp => ../

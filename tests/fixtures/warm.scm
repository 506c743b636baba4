; The program behind the golden session fixture warm.session (see
; tests/session_fixture.rs): if-r and exclusive-cond sites whose
; expansions depend on the profile in warm.pgmp.
(define (classify n) (if-r (< n 10) 'small 'big))
(define (grade n)
  (exclusive-cond
    ((< n 20) 'low)
    ((>= n 20) 'high)))
(define (tally n)
  (let loop ([i 0] [bigs 0] [highs 0])
    (if (= i n)
        (list bigs highs)
        (loop (add1 i)
              (if (eq? (classify i) 'big) (add1 bigs) bigs)
              (if (eq? (grade i) 'high) (add1 highs) highs)))))
(tally 60)

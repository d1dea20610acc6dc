let certify ~device ~deadline ?copies ~horizon () =
  if horizon < deadline then invalid_arg "Weak_ring: horizon < deadline";
  Ring_argument.certify ~who:"Weak_ring" ~problem:"weak-agreement"
    ~theorem:"Theorem 2 (weak agreement, Bounded-Delay)" ~bound:"deadline"
    ~header:(fun ~ring_len ->
      Printf.sprintf "ring of %d nodes (%d copies); arc inputs 0 then 1"
        ring_len (ring_len / 3))
    ~anchors:("E-all-0", "E-all-1")
    ~deep:("Lemma 3 (deep in 0-arc)", "Lemma 3 (deep in 1-arc)")
    ~fate:(fun trace u -> Option.map Value.to_string (Trace.decision trace u))
    ~fate_note:(fun d ->
      "its decision in S is " ^ Option.value d ~default:"undecided")
    ~fates:"ring decisions"
    ~check_anchor:(fun ~input trace ->
      Ba_spec.check_weak ~trace ~correct:[ 0; 1; 2 ] ~all_correct:true
        ~inputs:(fun _ -> Value.bool input)
        ~deadline)
    ~check:(fun r ->
      Ba_spec.check_weak ~trace:r.Reconstruct.trace
        ~correct:r.Reconstruct.correct ~all_correct:false
        ~inputs:(System.input r.Reconstruct.system)
        ~deadline)
    ~fallback:
      "every pair run agreed and chose by the deadline, yet the deep nodes \
       are pinned to different values — unreachable"
    ~device ~through:deadline ?copies ~horizon ()

let certify ~device ~fire_round ?copies ~horizon () =
  if horizon <= fire_round then invalid_arg "Firing_ring: horizon <= fire_round";
  Ring_argument.certify ~who:"Firing_ring" ~problem:"firing-squad"
    ~theorem:"Theorem 4 (firing squad, Bounded-Delay)" ~bound:"firing time"
    ~header:(fun ~ring_len ->
      Printf.sprintf
        "ring of %d nodes; stimulus on the second arc; expected firing time \
         %d" ring_len fire_round)
    ~anchors:("E-quiet", "E-stim")
    ~deep:("deep in quiet arc", "deep in stimulated arc")
    ~fate:(fun trace u ->
      Option.map string_of_int (Firing_spec.fire_time trace u))
    ~fate_note:(fun r ->
      "it fires at " ^ Option.value r ~default:"never" ^ " in S")
    ~fates:"ring fire times"
    ~check_anchor:(fun ~input trace ->
      Firing_spec.check ~trace ~correct:[ 0; 1; 2 ] ~all_correct:true
        ~stimulated:input)
    ~check:(fun r ->
      Firing_spec.check ~trace:r.Reconstruct.trace
        ~correct:r.Reconstruct.correct ~all_correct:false ~stimulated:false)
    ~fallback:
      "every pair fired in unison yet the two arcs are pinned to fire and not \
       fire — unreachable"
    ~device ~through:fire_round ?copies ~horizon ()
